type section = Text | Data | Rodata | Bss | Tdata | Tbss

let section_to_string = function
  | Text -> ".text"
  | Data -> ".data"
  | Rodata -> ".rodata"
  | Bss -> ".bss"
  | Tdata -> ".tdata"
  | Tbss -> ".tbss"

let sections_in_layout_order = [ Text; Rodata; Data; Bss; Tdata; Tbss ]

type t = { name : string; section : section; size : int; alignment : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let make ~name ~section ~size ~alignment =
  if size < 0 then invalid_arg "Symbol.make: negative size";
  if not (is_power_of_two alignment) then
    invalid_arg "Symbol.make: alignment must be a positive power of two";
  { name; section; size; alignment }

let is_function t = t.section = Text
