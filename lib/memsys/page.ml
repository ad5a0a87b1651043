let size = 4096
let number addr = addr / size
let base addr = addr / size * size
let offset addr = addr mod size
let round_up addr = (addr + size - 1) / size * size
let count ~bytes = (bytes + size - 1) / size

let span ~addr ~len =
  if len <= 0 then []
  else begin
    let first = number addr and last = number (addr + len - 1) in
    List.init (last - first + 1) (fun i -> first + i)
  end

(* Contiguous page runs. Large mappings (a 540 MiB working set is 138k
   pages) are represented as a handful of ranges instead of materialized
   page lists: construction and DSM registration become O(ranges), and
   page numbers are recovered arithmetically where needed. *)

type range = { first : int; count : int }

let range_of_span ~addr ~len =
  if len <= 0 then { first = number addr; count = 0 }
  else begin
    let first = number addr and last = number (addr + len - 1) in
    { first; count = last - first + 1 }
  end

let range_pages r = List.init r.count (fun i -> r.first + i)
let ranges_count rs = List.fold_left (fun acc r -> acc + r.count) 0 rs
let ranges_pages rs = List.concat_map range_pages rs
