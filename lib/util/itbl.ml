(* Open-addressing hash table from int to int, tuned for the simulator's
   data memory: [find] allocates nothing and hashes without leaving OCaml
   (stdlib [Hashtbl] pays a C call to [caml_hash] per operation, which is
   measurable at one probe per simulated load/store).

   Linear probing over a power-of-two table with Fibonacci hashing (the
   multiplicative constant spreads the strided address patterns the
   simulated thread-local regions produce — identity hashing would stack
   every thread's region on the same slots). Deletions leave tombstones;
   the table regrows when live + tombstone slots pass 2/3 occupancy. *)

(* Keys are simulated addresses, never near [min_int]; the two sentinels
   can therefore never collide with a real key. *)
let empty_key = min_int
let tomb_key = min_int + 1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* live bindings *)
  mutable used : int; (* live + tombstones *)
}

let fib = 0x2545F4914F6CDD1D (* 2^63 / golden ratio, truncated to 63 bits *)

let slot_of mask key = (key * fib) lsr 8 land mask

let create capacity_hint =
  let rec cap c = if c >= capacity_hint * 2 then c else cap (c * 2) in
  let cap = cap 16 in
  { keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    live = 0;
    used = 0 }

let length t = t.live

(* Independent copy: same bindings, same probe layout, shared nothing. *)
let copy t =
  { keys = Array.copy t.keys;
    vals = Array.copy t.vals;
    mask = t.mask;
    live = t.live;
    used = t.used }

(* Probe for [key] from slot [i]: index of its slot, or (-1) if absent.
   Tombstones are skipped; an empty slot terminates the probe. A top-level
   loop over explicit arguments, so a probe allocates no closure. *)
let rec probe_from keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_key then -1
  else probe_from keys mask key ((i + 1) land mask)

let probe t key = probe_from t.keys t.mask key (slot_of t.mask key)

(* Value bound to [key], or [default] when absent. Never allocates;
   inlined into the simulator's load path. *)
let[@inline] find_default t key ~default =
  let i = probe t key in
  if i >= 0 then Array.unsafe_get t.vals i else default

let find_opt t key =
  let i = probe t key in
  if i >= 0 then Some (Array.unsafe_get t.vals i) else None

let mem t key = probe t key >= 0

let rec grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.live <- 0;
  t.used <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tomb_key then replace t k (Array.unsafe_get old_vals i))
    old_keys

(* First pass: existing binding or first reusable tombstone [tomb]. *)
and replace_from t keys mask key v i tomb =
  let k = Array.unsafe_get keys i in
  if k = key then Array.unsafe_set t.vals i v
  else if k = empty_key then begin
    let target = if tomb >= 0 then tomb else i in
    Array.unsafe_set keys target key;
    Array.unsafe_set t.vals target v;
    t.live <- t.live + 1;
    if tomb < 0 then t.used <- t.used + 1;
    if t.used * 3 > (mask + 1) * 2 then grow t
  end
  else
    let tomb = if k = tomb_key && tomb < 0 then i else tomb in
    replace_from t keys mask key v ((i + 1) land mask) tomb

and replace t key v = replace_from t t.keys t.mask key v (slot_of t.mask key) (-1)

let remove t key =
  let i = probe t key in
  if i >= 0 then begin
    Array.unsafe_set t.keys i tomb_key;
    t.live <- t.live - 1
  end

let iter f t =
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tomb_key then f k (Array.unsafe_get t.vals i))
    t.keys

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
