(* Growable circular buffer over parallel scalar lanes (one float, one
   int per slot). The serving hot path keeps its per-service request
   queues in these: push/pop are O(1) amortized and touch only
   preallocated arrays, so steady-state traffic allocates nothing — the
   property the millions-of-requests serving scenarios depend on.

   The two lanes always move together; callers that need only one lane
   pass a dummy for the other. Capacity grows by doubling and shrinks
   only when [clear] releases the backing arrays. *)

type t = {
  mutable fs : float array;
  mutable is : int array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  { fs = Array.make (max capacity 0) 0.0;
    is = Array.make (max capacity 0) 0;
    head = 0;
    len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.fs

let grow t =
  let cap = Array.length t.fs in
  let cap' = max 8 (cap * 2) in
  let fs' = Array.make cap' 0.0 and is' = Array.make cap' 0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    fs'.(i) <- t.fs.(j);
    is'.(i) <- t.is.(j)
  done;
  t.fs <- fs';
  t.is <- is';
  t.head <- 0

let push t f i =
  if t.len = Array.length t.fs then grow t;
  let tail = (t.head + t.len) mod Array.length t.fs in
  t.fs.(tail) <- f;
  t.is.(tail) <- i;
  t.len <- t.len + 1

let peek_f t =
  if t.len = 0 then invalid_arg "Ring.peek_f: empty";
  t.fs.(t.head)

(* Pop returns only the int lane (the common case: queue of request
   ids); read the float lane first via {!peek_f} when it matters. *)
let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let i = t.is.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.fs;
  t.len <- t.len - 1;
  i

let iter t f =
  let cap = Array.length t.fs in
  for k = 0 to t.len - 1 do
    let j = (t.head + k) mod cap in
    f t.fs.(j) t.is.(j)
  done

let clear t =
  t.fs <- [||];
  t.is <- [||];
  t.head <- 0;
  t.len <- 0

(* O(1) handoff of [src]'s whole contents: the new ring takes over
   [src]'s backing arrays, and [src] is left empty with zero capacity,
   regrowing on its next push. Used by migration drain: the departing
   instance's backlog is detached in constant time instead of being
   copied element-wise. *)
let detach src =
  let d = { fs = src.fs; is = src.is; head = src.head; len = src.len } in
  clear src;
  d
