(* Branch Target Buffer.

   Set-associative, tagged by branch PC, storing the predicted target. Only
   *taken* control transfers are allocated (the paper's motivation: layouts
   that convert taken branches into fallthroughs relieve BTB pressure). *)

(* One [int array] row per set, indexed by way: [tags] (-1 = invalid),
   predicted [targets] and LRU [stamps]. Rows of ints instead of per-way
   records let lookup and update share {!Cache}'s allocation-free row
   loops. *)
type t = {
  sets : int;
  tags : int array array;
  targets : int array array;
  stamps : int array array;
  mutable tick : int;
  mutable lookups : int;
  mutable misses : int;
}

let create ~entries ~ways =
  let sets = max 1 (entries / ways) in
  if sets land (sets - 1) <> 0 then invalid_arg "Btb.create: entries/ways must be a power of two";
  let rows init = Array.init sets (fun _ -> Array.make ways init) in
  { sets;
    tags = rows (-1);
    targets = rows 0;
    stamps = rows 0;
    tick = 0;
    lookups = 0;
    misses = 0 }

let set_of t pc = (pc lsr 1) land (t.sets - 1)

(* Probe for a taken transfer at [pc]: bumps the clock and the lookup
   count, refreshes a hit's recency, counts a miss. Returns the way within
   [set_of t pc], or -1 on a miss. *)
let probe t pc =
  t.tick <- t.tick + 1;
  t.lookups <- t.lookups + 1;
  let set = set_of t pc in
  let w = Cache.find_way (Array.unsafe_get t.tags set) pc in
  if w < 0 then begin
    t.misses <- t.misses + 1;
    -1
  end
  else begin
    Array.unsafe_set (Array.unsafe_get t.stamps set) w t.tick;
    w
  end

let target_at t pc w = Array.unsafe_get (Array.unsafe_get t.targets (set_of t pc)) w

(* Look up the predicted target for a taken transfer at [pc]. *)
let lookup t pc =
  let w = probe t pc in
  if w < 0 then None else Some (target_at t pc w)

(* [lookup] specialized for the interpreter's hot path: classify the
   prediction for a taken transfer at [pc] that actually went to [target]
   without allocating an option. Counter and stamp effects are identical to
   [lookup]. Returns 0 on miss, 1 on a correct hit, 2 on a wrong-target
   hit. *)
let lookup_class t pc ~target =
  let w = probe t pc in
  if w < 0 then 0 else if target_at t pc w = target then 1 else 2

(* Record that the transfer at [pc] went to [target]. *)
let update t pc target =
  t.tick <- t.tick + 1;
  let set = set_of t pc in
  let tags = Array.unsafe_get t.tags set and stamps = Array.unsafe_get t.stamps set in
  let w = Cache.find_way tags pc in
  let w = if w >= 0 then w else Cache.victim_way tags stamps in
  Array.unsafe_set tags w pc;
  Array.unsafe_set (Array.unsafe_get t.targets set) w target;
  Array.unsafe_set stamps w t.tick

let reset_counters t =
  t.lookups <- 0;
  t.misses <- 0

let flush t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) (-1)) t.tags;
  reset_counters t

let miss_rate t = if t.lookups = 0 then 0.0 else float_of_int t.misses /. float_of_int t.lookups

let lookups t = t.lookups
let misses t = t.misses
