(* Every experiment, as (name, title, run), in the order the bench
   harness runs a selection; `bench/main.exe` and `hetmig experiment`
   both read this list. [throughput] comes first: its heap check reads
   the process-wide top-of-heap watermark, which would otherwise count
   every experiment that ran before it. *)

let all =
  [
    ("throughput", "Serving throughput at scale (non-paper)", Throughput.run);
    ("fig1", "Figure 1 (emulation slowdown)", Fig1.run);
    ("fig3-5", "Figures 3-5 (migration point gaps)", Fig35.run);
    ("fig6-9", "Figures 6-9 (wrapper overhead)", Fig69.run);
    ("table1", "Table 1 (alignment cost)", Table1.run);
    ("fig10", "Figure 10 (stack transformation)", Fig10.run);
    ("fig11", "Figure 11 (PadMig vs native)", Fig11.run);
    ("fig12", "Figure 12 (sustained workload)", Fig12.run);
    ("fig13", "Figure 13 (periodic workload)", Fig13.run);
    ("ablations", "Ablation studies (non-paper)", Ablation.run);
    ("degraded", "Degraded mode (fault injection, non-paper)", Degraded.run);
    ("prefetch", "Batched hDSM transfers + prefetch (non-paper)", Prefetch.run);
    ("telemetry", "Observability: traced degraded run (non-paper)",
     Telemetry.run);
    ("engine", "Event core: engine/calendar/islands (non-paper)", Engine.run);
    ("cluster", "Cluster: rack topology + global policies (non-paper)",
     Cluster.run);
    ("serving", "Open-loop SLO serving (non-paper)", Serving.run);
  ]

let names = List.map (fun (n, _, _) -> n) all
let find name = List.find_opt (fun (n, _, _) -> n = name) all
