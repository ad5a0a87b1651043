(* The splitmix64 state is 8 bytes read and written with the unboxed
   int64 primitives: a draw keeps every Int64 intermediate in a
   register, allocates nothing, and stores the state without a write
   barrier (an [int64] record field would box on every store). *)
type t = Bytes.t

let[@inline] get t = Bytes.get_int64_ne t 0
let[@inline] set t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next_int64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let split t = of_state (next_int64 t)
let copy = Bytes.copy

let fingerprint = get

(* golden_gamma is odd, so it is invertible mod 2^64; Newton iteration
   on the 2-adic inverse (x <- x * (2 - a*x)) doubles the valid bit
   count each step, and a itself is already an inverse mod 2^3. *)
let golden_gamma_inv =
  let rec go x n =
    if n = 0 then x
    else go Int64.(mul x (sub 2L (mul golden_gamma x))) (n - 1)
  in
  go golden_gamma 6

let draws_between ~before ~after =
  Int64.to_int (Int64.mul (Int64.sub after before) golden_gamma_inv)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the result is a non-negative OCaml int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(* 53-bit mantissa from the top bits, uniform in [0, 1). The 53-bit
   value fits an OCaml int, and [float_of_int] is exact below 2^53, so
   the conversion is an inline instruction, not [Int64.to_float]'s C
   call. *)
let[@inline] to_unit n =
  float_of_int (Int64.to_int (Int64.shift_right_logical n 11))
  *. (1.0 /. 9007199254740992.0)

let[@inline] unit_float t = to_unit (next_int64 t)

let float t bound = unit_float t *. bound
let float_in t lo hi = lo +. (unit_float t *. (hi -. lo))
let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u = unit_float t in
    if u <= 1e-300 then draw () else u
  in
  let u1 = draw () and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

(* Exponential deviate by inversion, with the same rejection loop as
   [gaussian]. Arrival generators draw one of these per request: a loop
   rather than a recursion, so it inlines and its result stays
   unboxed. *)
let[@inline] exponential t ~mean =
  let u = ref (unit_float t) in
  while !u <= 1e-300 do
    u := unit_float t
  done;
  -.mean *. log !u

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

(* One-shot lognormal draw from a seed, bit-identical to
   [lognormal (create seed) ~mu ~sigma] but with the state in local
   lets instead of a generator, so nothing is allocated. This is the
   serving hot path's per-request demand draw. The astronomically cold
   Box-Muller rejection branch (u1 <= 1e-300) replays the same draw
   sequence through a generator. *)
let lognormal_of_seed seed ~mu ~sigma =
  let s1 = Int64.add (mix (Int64.of_int seed)) golden_gamma in
  let u1 = to_unit (mix s1) in
  if u1 <= 1e-300 then begin
    let t = create seed in
    let _ = unit_float t in
    exp (gaussian t ~mean:mu ~stddev:sigma)
  end
  else begin
    let u2 = to_unit (mix (Int64.add s1 golden_gamma)) in
    let g = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    exp (mu +. (sigma *. g))
  end

let choice t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
