(* Open-addressing hash table keyed by int, for the simulator's data
   memory and per-address scratch tables: [find_default] allocates nothing
   and hashes without leaving OCaml (stdlib [Hashtbl] pays a C call to
   [caml_hash] per operation, and a polymorphic compare per probe, which
   is measurable at one probe per simulated load/store or per instruction
   of a function).

   Linear probing over a power-of-two table with Fibonacci hashing (the
   multiplicative constant spreads the strided address patterns the
   simulated thread-local regions produce — identity hashing would stack
   every thread's region on the same slots). Deletions leave tombstones;
   the table regrows when live + tombstone slots pass 2/3 occupancy.

   The value array is created by the first binding, filled with that
   value: an empty slot's value is never read, so no dummy value of the
   element type is needed. *)

(* Keys are simulated addresses, never near [min_int]: the two sentinels
   are refused as keys and never found. *)
let empty_key = min_int
let tomb_key = min_int + 1

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array; (* [||] until the first binding *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* live bindings *)
  mutable used : int; (* live + tombstones *)
}

let fib = 0x2545F4914F6CDD1D (* 2^63 / golden ratio, truncated to 63 bits *)

let slot_of mask key = (key * fib) lsr 8 land mask

let create capacity_hint =
  let rec cap c = if c >= capacity_hint * 2 then c else cap (c * 2) in
  let cap = cap 16 in
  { keys = Array.make cap empty_key; vals = [||]; mask = cap - 1; live = 0; used = 0 }

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

(* A sentinel is never bound, so probing one finds nothing (an arbitrary
   int, such as a register value, is safe to look up). *)
let probe t key =
  if key <= tomb_key then -1 else probe_from t.keys t.mask key (slot_of t.mask key)

(* Value bound to [key], or [default] when absent. Never allocates;
   inlined into the simulator's load path. *)
let[@inline] find_default t key ~default =
  let i = probe t key in
  if i >= 0 then Array.unsafe_get t.vals i else default

let find_opt t key =
  let i = probe t key in
  if i >= 0 then Some (Array.unsafe_get t.vals i) else None

let find t key =
  let i = probe t key in
  if i >= 0 then Array.unsafe_get t.vals i else raise Not_found

let mem t key = probe t key >= 0

(* Slot of [key]'s binding, or where a new one goes: the first tombstone
   on its probe path, else the empty slot that ends the path. *)
let rec free_from keys mask key i tomb =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_key then if tomb >= 0 then tomb else i
  else
    let tomb = if k = tomb_key && tomb < 0 then i else tomb in
    free_from keys mask key ((i + 1) land mask) tomb

(* Bind [key] to a slot and return it, counting a new binding. The caller
   stores the value, then calls [settle]: the value array is typed at the
   caller, so an [int t] stores through an [int array]. *)
let claim t key =
  if key <= tomb_key then invalid_arg "Itbl.replace: reserved key";
  let keys = t.keys in
  let i = free_from keys t.mask key (slot_of t.mask key) (-1) in
  let k = Array.unsafe_get keys i in
  if k <> key then begin
    Array.unsafe_set keys i key;
    t.live <- t.live + 1;
    if k = empty_key then t.used <- t.used + 1
  end;
  i

(* Rebind in slot order into a table twice the size, which drops the
   tombstones. *)
let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap (Array.unsafe_get old_vals 0);
  t.mask <- cap - 1;
  t.live <- 0;
  t.used <- 0;
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> empty_key && k <> tomb_key then
      Array.unsafe_set t.vals (claim t k) (Array.unsafe_get old_vals i)
  done

(* Regrow once live + tombstone slots pass 2/3 occupancy. *)
let settle t = if t.used * 3 > (t.mask + 1) * 2 then grow t

let replace t key v =
  let i = claim t key in
  if Array.length t.vals = 0 then t.vals <- Array.make (t.mask + 1) v;
  Array.unsafe_set t.vals i v;
  settle t

(* [replace] on an [int t], specialized at the definition: the store goes
   through an [int array], so it pays no write barrier ([caml_modify]) —
   one per simulated store. A read needs no such twin: [find_default]'s
   float-array tag check measured as noise next to the probe. *)
let replace_int (t : int t) key (v : int) =
  let i = claim t key in
  if Array.length t.vals = 0 then t.vals <- Array.make (t.mask + 1) v;
  Array.unsafe_set (t.vals : int array) i v;
  settle t

let remove t key =
  let i = probe t key in
  if i >= 0 then begin
    Array.unsafe_set t.keys i tomb_key;
    t.live <- t.live - 1
  end

(* Slot order: deterministic for a given history of bindings, but not
   sorted. Callers whose output depends on the order sort what they
   collect. *)
let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty_key && k <> tomb_key then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
