(* Deterministic splitmix64 PRNG. All simulation randomness flows through
   this module so that every experiment is reproducible from a seed.

   The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field would
   box a fresh state on every draw, and the [Rand] instruction draws on the
   simulator's per-instruction path. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A fresh generator whose stream is independent of the parent's future. *)
let split t = of_state (next_int64 t)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t = float_of_int (bits t) /. 4611686018427387904.0

let bool t p = float t < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Sample an index according to non-negative weights. *)
let weighted_index t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights sum to zero";
  let x = float t *. total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0
