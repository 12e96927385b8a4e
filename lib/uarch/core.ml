(* Per-core front-end timing model.

   The interpreter reports fetch, branch, memory and transaction events;
   this module charges cycles and attributes them to TopDown categories.
   Each simulated thread owns one core (the paper's testbed has at least as
   many cores as steady-state worker threads). *)

(* All-float record: OCaml stores these fields flat and unboxed, so the
   per-instruction cycle accounting allocates nothing. Keeping them in a
   mixed record would box every [<-] on a float field. *)
type cyc = {
  mutable base : float;
  mutable fe : float;
  mutable bs : float;
  mutable be : float;
  mutable dram_next_free : float;
  mutable dram_last_arrival : float;
}

(* Front-end events worth attributing to code addresses. Constant
   constructors only: firing an observer allocates nothing. *)
type fe_event = L1i_miss | Itlb_miss | Btb_miss | Taken_branch

type t = {
  cfg : Config.t;
  issue_cost : float; (* 1 / issue_width, precomputed for the fetch path *)
  exact_base : bool;
      (* [issue_width] is a power of two, so [issue_cost] is an exact binary
         fraction and [instructions * issue_cost] equals the per-fetch
         incremental sum bit-for-bit; base cycles are then computed lazily
         instead of accumulated on every fetch *)
  line_bits : int; (* log2 line_bytes; line math by shift, not division *)
  page_bits : int; (* log2 page_bytes *)
  cyc : cyc;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t; (* unified, private *)
  l3 : Cache.t; (* per-core slice of the shared last-level cache *)
  itlb : Cache.t;
  btb : Btb.t;
  pred : Predictor.t;
  ras : Predictor.Ras.t;
  mutable last_line : int;
  mutable last_page : int;
  mutable instructions : int;
  mutable transactions : int;
  mutable l1i_accesses : int;
  mutable l1i_misses : int;
  mutable itlb_accesses : int;
  mutable itlb_misses : int;
  mutable l1d_accesses : int;
  mutable l1d_misses : int;
  mutable l2_misses : int;
  mutable taken_branches : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  mutable on_l1i_miss : (int -> unit) option;
      (* observer for L1i miss addresses (the perf-annotate analog) *)
  mutable on_fe : (fe_event -> int -> unit) option;
      (* front-end event observer, fired with the code address; only ever
         consulted on slow paths (misses, taken transfers), never on the
         inlined [fetch] fast path *)
}

(* Exact log2; caches already validate these geometries as powers of two. *)
let log2_exact what v =
  if v <= 0 || v land (v - 1) <> 0 then
    invalid_arg (Printf.sprintf "Core.create: %s (%d) must be a power of two" what v);
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let create ?(cfg = Config.broadwell) () =
  { cfg;
    issue_cost = 1.0 /. float_of_int cfg.issue_width;
    exact_base = cfg.issue_width land (cfg.issue_width - 1) = 0;
    line_bits = log2_exact "line_bytes" cfg.line_bytes;
    page_bits = log2_exact "page_bytes" cfg.page_bytes;
    cyc =
      { base = 0.0;
        fe = 0.0;
        bs = 0.0;
        be = 0.0;
        dram_next_free = 0.0;
        dram_last_arrival = neg_infinity };
    l1i = Cache.of_size ~name:"L1i" ~size_bytes:cfg.l1i_bytes ~ways:cfg.l1i_ways
            ~line_bytes:cfg.line_bytes;
    l1d = Cache.of_size ~name:"L1d" ~size_bytes:cfg.l1d_bytes ~ways:cfg.l1d_ways
            ~line_bytes:cfg.line_bytes;
    l2 = Cache.of_size ~name:"L2" ~size_bytes:cfg.l2_bytes ~ways:cfg.l2_ways
           ~line_bytes:cfg.line_bytes;
    l3 = Cache.of_size ~name:"L3" ~size_bytes:cfg.l3_bytes ~ways:cfg.l3_ways
           ~line_bytes:cfg.line_bytes;
    itlb = Cache.create ~name:"iTLB" ~sets:(max 1 (cfg.itlb_entries / cfg.itlb_ways))
             ~ways:cfg.itlb_ways ~line_bytes:cfg.page_bytes;
    btb = Btb.create ~entries:cfg.btb_entries ~ways:cfg.btb_ways;
    pred = Predictor.create ~history_bits:cfg.gshare_bits ();
    ras = Predictor.Ras.create ~size:cfg.ras_depth ();
    last_line = -1;
    last_page = -1;
    instructions = 0;
    transactions = 0;
    l1i_accesses = 0;
    l1i_misses = 0;
    itlb_accesses = 0;
    itlb_misses = 0;
    l1d_accesses = 0;
    l1d_misses = 0;
    l2_misses = 0;
    taken_branches = 0;
    cond_branches = 0;
    mispredicts = 0;
    on_l1i_miss = None;
    on_fe = None }

let[@inline] fire_fe t ev addr =
  match t.on_fe with Some f -> f ev addr | None -> ()

(* Issue ("base") cycles. With [exact_base] the stored accumulator stays 0
   and the product below is bit-identical to what the accumulator would
   hold; otherwise [cyc.base] carries the per-fetch sum. *)
let[@inline] base_cycles t =
  if t.exact_base then float_of_int t.instructions *. t.issue_cost else t.cyc.base

let[@inline] cycles t = base_cycles t +. t.cyc.fe +. t.cyc.bs +. t.cyc.be

(* The engines' horizon check, asked once per instruction. It returns a
   bool rather than the cycle count: a float result that crosses a module
   boundary is boxed wherever the call is not inlined (every call under
   the dev profile's -opaque). *)
let[@inline] cycles_below t limit = cycles t < limit

(* Core-issue ("demand") time: cycles excluding back-end memory stalls.
   Measures how bursty the core's memory demand is independent of the
   backpressure those requests later suffer. *)
let[@inline] demand_cycles t = base_cycles t +. t.cyc.fe +. t.cyc.bs

(* DRAM for instruction fetch: blocking, full latency (the front-end cannot
   overlap a fetch miss). Charged in place, like every cost below: a
   float-returning helper would box its result on every miss. *)
let dram_ifetch t =
  t.l2_misses <- t.l2_misses + 1;
  t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.dram_latency

(* DRAM for data: latency is overlapped by memory-level parallelism, but
   requests issued close together in *demand time* suffer bank conflicts at
   the memory controller and are serviced at a wider interval. This models
   the paper's MongoDB scan95insert5 inversion ("poor memory controller
   scheduling"): a layout-optimized front-end issues the same stream of
   misses in a burstier pattern, losing controller efficiency, while
   spread-out request streams are unaffected. *)
let dram_data t =
  let now = cycles t in
  let demand = demand_cycles t in
  let bursty = demand -. t.cyc.dram_last_arrival < float_of_int t.cfg.dram_burst_window in
  let interval =
    if bursty then float_of_int t.cfg.dram_burst_interval
    else float_of_int t.cfg.dram_base_interval
  in
  t.cyc.dram_last_arrival <- demand;
  let wait = Float.max 0.0 (t.cyc.dram_next_free -. now) in
  t.cyc.dram_next_free <- Float.max now t.cyc.dram_next_free +. interval;
  t.l2_misses <- t.l2_misses + 1;
  t.cyc.be <-
    t.cyc.be +. (wait +. (float_of_int t.cfg.dram_latency /. float_of_int t.cfg.dram_mlp))

(* Instruction fetch: charge L1i and iTLB effects once per line / page
   transition, covering lines an instruction straddles. The [fetch] wrapper
   below inlines the no-transition fast path into the dispatch loops; this
   slow path runs on any line or page change. *)
let fetch_slow t ~addr ~size =
  let line_bits = t.line_bits in
  let first_line = addr lsr line_bits and last_line = (addr + size - 1) lsr line_bits in
  for line = first_line to last_line do
    if line <> t.last_line then begin
      t.last_line <- line;
      t.l1i_accesses <- t.l1i_accesses + 1;
      let byte = line lsl line_bits in
      if not (Cache.access t.l1i byte) then begin
        t.l1i_misses <- t.l1i_misses + 1;
        (match t.on_l1i_miss with Some f -> f addr | None -> ());
        fire_fe t L1i_miss addr;
        if Cache.access t.l2 byte then
          t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.l2_latency
        else if Cache.access t.l3 byte then
          t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.l3_latency
        else dram_ifetch t
      end;
      (* Next-line prefetcher: straight-line code streams hide their own
         fetch misses, which is a large part of why packed layouts win. *)
      if t.cfg.next_line_prefetch then
        ignore (Cache.prefetch t.l1i (byte + (1 lsl line_bits)))
    end
  done;
  let page = addr lsr t.page_bits in
  if page <> t.last_page then begin
    t.last_page <- page;
    t.itlb_accesses <- t.itlb_accesses + 1;
    if not (Cache.access t.itlb addr) then begin
      t.itlb_misses <- t.itlb_misses + 1;
      t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.itlb_walk_latency;
      fire_fe t Itlb_miss addr
    end
  end

let[@inline] fetch t ~addr ~size =
  t.instructions <- t.instructions + 1;
  if not t.exact_base then t.cyc.base <- t.cyc.base +. t.issue_cost;
  (* Fast path: the instruction sits wholly on the line fetched last time
     and on the same page, so [fetch_slow]'s loop and page check would
     touch nothing. *)
  let first_line = addr lsr t.line_bits in
  if
    first_line = t.last_line
    && (addr + size - 1) lsr t.line_bits = first_line
    && addr lsr t.page_bits = t.last_page
  then ()
  else fetch_slow t ~addr ~size

(* Common cost of any taken control transfer: fetch bubble plus BTB. *)
let taken_transfer t ~pc ~target =
  t.taken_branches <- t.taken_branches + 1;
  fire_fe t Taken_branch pc;
  t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.taken_bubble;
  let cls = Btb.lookup_class t.btb pc ~target in
  if cls <> 1 then t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.btb_miss_penalty;
  (* Class 0 is the only outcome [Btb.misses] counts, so it is the only one
     attributed — keeps per-function BTB counts consistent with
     [Counters.btb_misses]. *)
  if cls = 0 then fire_fe t Btb_miss pc;
  Btb.update t.btb pc target;
  (* Force the next fetch to re-access the cache at the target. *)
  t.last_line <- -1

let on_cond_branch t ~pc ~taken ~target =
  t.cond_branches <- t.cond_branches + 1;
  let correct = Predictor.predict_and_update t.pred pc ~taken in
  if not correct then begin
    t.mispredicts <- t.mispredicts + 1;
    t.cyc.bs <- t.cyc.bs +. float_of_int t.cfg.mispredict_penalty
  end;
  if taken then taken_transfer t ~pc ~target

let on_jump t ~pc ~target = taken_transfer t ~pc ~target

let on_indirect_jump t ~pc ~target =
  (* Target prediction through the BTB; a wrong target is a flush. *)
  (match Btb.lookup_class t.btb pc ~target with
  | 1 -> ()
  | 2 ->
    t.mispredicts <- t.mispredicts + 1;
    t.cyc.bs <- t.cyc.bs +. float_of_int t.cfg.mispredict_penalty
  | _ ->
    t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.btb_miss_penalty;
    fire_fe t Btb_miss pc);
  t.taken_branches <- t.taken_branches + 1;
  fire_fe t Taken_branch pc;
  t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.taken_bubble;
  Btb.update t.btb pc target;
  t.last_line <- -1

let on_call t ~pc ~target ~return_addr ~indirect =
  Predictor.Ras.push t.ras return_addr;
  if indirect then on_indirect_jump t ~pc ~target else taken_transfer t ~pc ~target

let on_ret t ~pc ~target =
  if not (Predictor.Ras.pop_correct t.ras ~target) then begin
    t.mispredicts <- t.mispredicts + 1;
    t.cyc.bs <- t.cyc.bs +. float_of_int t.cfg.mispredict_penalty
  end;
  t.taken_branches <- t.taken_branches + 1;
  fire_fe t Taken_branch pc;
  t.cyc.fe <- t.cyc.fe +. float_of_int t.cfg.taken_bubble;
  t.last_line <- -1

let on_mem_miss t ~addr =
  t.l1d_misses <- t.l1d_misses + 1;
  if Cache.access t.l2 addr then t.cyc.be <- t.cyc.be +. float_of_int t.cfg.l2_latency
  else if Cache.access t.l3 addr then t.cyc.be <- t.cyc.be +. float_of_int t.cfg.l3_latency
  else dram_data t

let[@inline] on_mem t ~addr =
  t.l1d_accesses <- t.l1d_accesses + 1;
  if not (Cache.access t.l1d addr) then on_mem_miss t ~addr

let on_tx t = t.transactions <- t.transactions + 1

(* Extra stall cycles injected from outside the model (scheduler pauses,
   profiling overhead). Attributed to the given TopDown bucket. *)
let stall t ~cycles:c ~category =
  match category with
  | `Frontend -> t.cyc.fe <- t.cyc.fe +. c
  | `Backend -> t.cyc.be <- t.cyc.be +. c
  | `BadSpec -> t.cyc.bs <- t.cyc.bs +. c

let snapshot t : Counters.t =
  { Counters.instructions = t.instructions;
    transactions = t.transactions;
    cycles = cycles t;
    base_cycles = base_cycles t;
    fe_cycles = t.cyc.fe;
    bs_cycles = t.cyc.bs;
    be_cycles = t.cyc.be;
    l1i_accesses = t.l1i_accesses;
    l1i_misses = t.l1i_misses;
    itlb_accesses = t.itlb_accesses;
    itlb_misses = t.itlb_misses;
    l1d_accesses = t.l1d_accesses;
    l1d_misses = t.l1d_misses;
    l2_misses = t.l2_misses;
    taken_branches = t.taken_branches;
    cond_branches = t.cond_branches;
    mispredicts = t.mispredicts;
    btb_lookups = Btb.lookups t.btb;
    btb_misses = Btb.misses t.btb }

let set_l1i_miss_observer t f = t.on_l1i_miss <- f
let set_fe_observer t f = t.on_fe <- f
