(* perf2bolt analog: convert raw LBR samples into an aggregated profile.

   Aggregate, then classify — the structure of LLVM BOLT's own
   DataAggregator. LBR streams are extremely repetitive (hundreds of
   thousands of records collapse to a few hundred or thousand distinct
   pairs), so:

   - pass 1 counts every distinct raw (from, to) branch pair and every
     distinct fallthrough candidate [to_i, from_{i+1}] between consecutive
     entries of one sample — one multiplicative hash and a probe per
     record, no symbolization;
   - pass 2 walks the distinct pairs in first-seen order and classifies
     each once against the binary (owning functions, call edge vs. branch
     edge, same-function range), adding the summed count to the profile.

   Every profile key is inserted exactly once, by the first pair that
   produces it, and pairs are visited in the order their first record
   arrived — the order a per-record conversion inserts in. The profile's
   tables therefore hold the same bindings in the same [Hashtbl.iter]
   order as a per-record conversion, which BOLT's profile partitioning
   (and so its output) depends on. The paper's Table II cost model still
   charges perf2bolt per raw record ([Cost.perf2bolt_seconds]); the
   aggregation only makes the host-side conversion cheaper. *)

open Ocolos_binary

(* Pass-1 accumulator: distinct (int, int) pairs with their counts, in
   first-seen order. Open addressing over flat int arrays — no tuple
   allocation and no polymorphic [caml_hash] per record; full-width keys,
   so no packing limit on addresses. *)
module Pairs = struct
  type t = {
    mutable slots : int array; (* 1 + pair index; 0 = empty *)
    mutable xs : int array;
    mutable ys : int array;
    mutable counts : int array;
    mutable len : int;
  }

  let create () =
    { slots = Array.make 1024 0;
      xs = Array.make 256 0;
      ys = Array.make 256 0;
      counts = Array.make 256 0;
      len = 0 }

  let fib = 0x2545F4914F6CDD1D (* as in Itbl: 2^63 / golden ratio *)
  let slot_of mask x y = (((x * fib) lxor y) * fib) lsr 8 land mask

  let place slots mask x y k =
    let i = ref (slot_of mask x y) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- k + 1

  let grow t =
    let cap = Array.length t.xs * 2 in
    let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
    t.xs <- extend t.xs;
    t.ys <- extend t.ys;
    t.counts <- extend t.counts;
    let slots = Array.make (2 * cap) 0 in
    for k = 0 to t.len - 1 do
      place slots (Array.length slots - 1) t.xs.(k) t.ys.(k) k
    done;
    t.slots <- slots

  (* The slot array stays at least twice the pair capacity, so probes
     always terminate on an empty slot. *)
  let add t x y =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = ref (slot_of mask x y) in
    let s = ref (Array.unsafe_get slots !i) in
    while !s <> 0 && not (t.xs.(!s - 1) = x && t.ys.(!s - 1) = y) do
      i := (!i + 1) land mask;
      s := Array.unsafe_get slots !i
    done;
    if !s <> 0 then t.counts.(!s - 1) <- t.counts.(!s - 1) + 1
    else begin
      let k = t.len in
      if k = Array.length t.xs then begin
        grow t;
        place t.slots (Array.length t.slots - 1) x y k
      end
      else slots.(!i) <- k + 1;
      t.xs.(k) <- x;
      t.ys.(k) <- y;
      t.counts.(k) <- 1;
      t.len <- k + 1
    end

  let iter f t =
    for k = 0 to t.len - 1 do
      f t.xs.(k) t.ys.(k) t.counts.(k)
    done
end

(* Fault points of the perf2bolt domain — both *raise* out of [convert]
   rather than degrade in place (a failed aggregation yields no usable
   profile; the supervisor treats it as a failed campaign and retries or
   trips the breaker):
     perf2bolt.stale_syms  cut once per convert, before any aggregation —
                           the paper's C2 problem: samples resolved against
                           symbols from a layout a prior replacement retired
     perf2bolt.aggregate   cut once per sample batch *)

let convert_sources ~(binary : Binary.t) ?fault (sources : Perf.sample list list) :
    Profile.t =
  Ocolos_obs.Trace.span "perf2bolt.convert" @@ fun conv_sp ->
  let cut name = match fault with None -> () | Some f -> Ocolos_util.Fault.cut f name in
  cut "perf2bolt.stale_syms";
  (* Pass 1: count raw pairs, source by source, batch by batch. *)
  let branches = Pairs.create () and ranges = Pairs.create () in
  let records = ref 0 in
  List.iter
    (List.iter (fun (s : Perf.sample) ->
         cut "perf2bolt.aggregate";
         let entries = s.Perf.entries in
         let n = Array.length entries in
         records := !records + n;
         for i = 0 to n - 1 do
           let e = entries.(i) in
           Pairs.add branches e.Lbr.from_addr e.Lbr.to_addr;
           (* Fallthrough candidate between consecutive taken branches. *)
           if i + 1 < n then begin
             let range_end = entries.(i + 1).Lbr.from_addr in
             if e.Lbr.to_addr <= range_end then Pairs.add ranges e.Lbr.to_addr range_end
           end
         done))
    sources;
  (* Pass 2: classify each distinct pair once. *)
  let profile = Profile.create () in
  let index = Binary.build_addr_index binary in
  let fid_of addr = Binary.index_lookup index addr in
  let entry_of_fid = Hashtbl.create 256 in
  Array.iter
    (fun s -> Hashtbl.replace entry_of_fid s.Binary.fs_entry s.Binary.fs_fid)
    binary.Binary.symbols;
  Pairs.iter
    (fun from_addr to_addr n ->
      Profile.add_branch profile ~from_addr ~to_addr n;
      let fid_from = fid_of from_addr and fid_to = fid_of to_addr in
      (match fid_from with Some f -> Profile.add_func_record profile f n | None -> ());
      (match fid_to with
      | Some f when fid_from <> Some f -> Profile.add_func_record profile f n
      | Some _ | None -> ());
      (* A call edge: the source instruction is a call, or the target is
         a function entry reached by a non-return transfer. *)
      match (fid_from, fid_to) with
      | Some caller, Some callee ->
        let is_call =
          match Binary.find_instr binary from_addr with
          | Some (Ocolos_isa.Instr.Call _) | Some (Ocolos_isa.Instr.CallInd _) -> true
          | Some _ -> false
          | None -> Hashtbl.mem entry_of_fid to_addr && caller <> callee
        in
        if is_call then Profile.add_call profile ~caller ~callee n
      | _, _ -> ())
    branches;
  Pairs.iter
    (fun start_addr end_addr n ->
      match (fid_of start_addr, fid_of end_addr) with
      | Some f1, Some f2 when f1 = f2 -> Profile.add_range profile ~start_addr ~end_addr n
      | _, _ -> ())
    ranges;
  let records = !records in
  Ocolos_obs.Trace.set_attr conv_sp "records" (Ocolos_obs.Trace.I records);
  Ocolos_obs.Trace.set_attr conv_sp "branch_edges"
    (Ocolos_obs.Trace.I (Hashtbl.length profile.Profile.branches));
  Ocolos_obs.Trace.set_attr conv_sp "fallthrough_ranges"
    (Ocolos_obs.Trace.I (Hashtbl.length profile.Profile.ranges));
  Ocolos_obs.Metrics.count "ocolos_perf2bolt_records_total" records;
  profile

let convert ~binary ?fault samples = convert_sources ~binary ?fault [ samples ]

(* Whole-sample decimation: per-sample processing above is independent
   across batches (fallthrough ranges never cross a sample boundary), so
   keeping every Nth batch is an exact 1/N thinning of the record stream.
   N replicas with identical streams kept at interleaved phases partition
   the full stream, which is what makes fleet aggregation count-identical
   to a single full-rate replica. *)
let decimate ~keep_every ~phase samples =
  if keep_every < 1 then invalid_arg "Perf2bolt.decimate: keep_every < 1";
  if phase < 0 || phase >= keep_every then invalid_arg "Perf2bolt.decimate: phase out of range";
  if keep_every = 1 then samples
  else List.filteri (fun i _ -> i mod keep_every = phase) samples
