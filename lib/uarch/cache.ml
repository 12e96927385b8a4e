(* Generic set-associative cache with true-LRU replacement.

   Used for the L1i, L1d and unified L2 (with 64-byte lines) and for the
   iTLB (a "cache" of 4 KiB pages). Tracks hit/miss counters. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bits : int;
  tags : int array array; (* tags.(set).(way); -1 = invalid *)
  stamp : int array array; (* LRU timestamps *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  (* Way memo for the last line touched by [access]: a verified hint that
     skips the associative probe on consecutive same-line accesses. Since a
     line resides in at most one way, confirming [tags.(set_of m_line).(m_way)
     = m_line] proves the probe would land on [m_way]. *)
  mutable m_line : int;
  mutable m_way : int;
  (* Same idea for [prefetch]'s residency check, kept separate so the
     access/prefetch pairs a loop body re-issues each iteration both keep
     their hints. *)
  mutable p_line : int;
  mutable p_way : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~name ~sets ~ways ~line_bytes =
  if not (is_power_of_two sets) then invalid_arg "Cache.create: sets must be a power of two";
  if not (is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  { name;
    sets;
    ways;
    line_bits = log2 line_bytes;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    stamp = Array.init sets (fun _ -> Array.make ways 0);
    tick = 0;
    hits = 0;
    misses = 0;
    m_line = -1;
    m_way = 0;
    p_line = -1;
    p_way = 0 }

(* Reject inexact geometry rather than silently modeling a cache of the
   wrong size: [size_bytes] must factor exactly into sets * ways * line. *)
let of_size ~name ~size_bytes ~ways ~line_bytes =
  if ways <= 0 then invalid_arg "Cache.of_size: ways must be positive";
  if line_bytes <= 0 || size_bytes mod line_bytes <> 0 then
    invalid_arg "Cache.of_size: size_bytes must be a positive multiple of line_bytes";
  let lines = size_bytes / line_bytes in
  if lines = 0 || lines mod ways <> 0 then
    invalid_arg "Cache.of_size: size_bytes must be a multiple of ways * line_bytes";
  create ~name ~sets:(lines / ways) ~ways ~line_bytes

let line_of t addr = addr lsr t.line_bits

let set_of t line = line land (t.sets - 1)

(* Row helpers over one set's [int array] rows, shared with {!Btb}. The
   loops are bounded by the row's own length, so the unchecked reads are
   safe (a set's tag and stamp rows have the same length); they are
   top-level functions over explicit arguments because a local [let rec]
   capturing the row would allocate its closure on every probe, and these
   run once or more per simulated instruction. *)
let rec find_from (row : int array) (key : int) w =
  if w >= Array.length row then -1
  else if Array.unsafe_get row w = key then w
  else find_from row key (w + 1)

let find_way row key = find_from row key 0

(* Victim: first invalid way if any, else least-recently-used (ties go to
   the lowest way index, matching the strict-< scan). *)
let rec victim_from (tags : int array) (stamp : int array) v w =
  if w >= Array.length tags then v
  else if Array.unsafe_get tags w = -1 then w
  else
    victim_from tags stamp
      (if Array.unsafe_get stamp w < Array.unsafe_get stamp v then w else v)
      (w + 1)

let victim_way tags stamp = if Array.unsafe_get tags 0 = -1 then 0 else victim_from tags stamp 0 1

(* Access a byte address; returns true on hit. Miss fills the line, evicting
   the least-recently-used way. *)
let access t addr =
  t.tick <- t.tick + 1;
  let line = line_of t addr in
  let set = set_of t line in
  let tags = Array.unsafe_get t.tags set and stamp = Array.unsafe_get t.stamp set in
  if line = t.m_line && Array.unsafe_get tags t.m_way = line then begin
    (* Verified memo hit: same effects the probe's hit path has. *)
    Array.unsafe_set stamp t.m_way t.tick;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let w = find_way tags line in
    if w >= 0 then begin
      Array.unsafe_set stamp w t.tick;
      t.hits <- t.hits + 1;
      t.m_line <- line;
      t.m_way <- w;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let victim = victim_way tags stamp in
      Array.unsafe_set tags victim line;
      Array.unsafe_set stamp victim t.tick;
      t.m_line <- line;
      t.m_way <- victim;
      false
    end
  end

(* Hardware prefetch. A prefetch of a resident line is a no-op: it touches
   neither recency nor the clock, so prefetch-hits cannot reorder demand
   evictions. A prefetch of an absent line fills the LRU/invalid way and
   becomes MRU, like a demand fill. Hit/miss counters never move. Returns
   true if the line was already resident. *)
let prefetch t addr =
  let line = line_of t addr in
  let set = set_of t line in
  let tags = Array.unsafe_get t.tags set in
  if line = t.p_line && Array.unsafe_get tags t.p_way = line then true
  else begin
    let w = find_way tags line in
    if w >= 0 then begin
      t.p_line <- line;
      t.p_way <- w;
      true
    end
    else begin
      t.tick <- t.tick + 1;
      let stamp = Array.unsafe_get t.stamp set in
      let victim = victim_way tags stamp in
      Array.unsafe_set tags victim line;
      Array.unsafe_set stamp victim t.tick;
      t.p_line <- line;
      t.p_way <- victim;
      false
    end
  end

(* Probe without updating state or counters. *)
let probe t addr =
  let line = line_of t addr in
  find_way (Array.unsafe_get t.tags (set_of t line)) line >= 0

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.iter (fun set -> Array.fill set 0 (Array.length set) (-1)) t.tags;
  t.m_line <- -1;
  t.p_line <- -1;
  reset_counters t

let accesses t = t.hits + t.misses

let miss_rate t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.misses /. float_of_int n

let size_bytes t = t.sets * t.ways * (1 lsl t.line_bits)
