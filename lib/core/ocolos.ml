(* OCOLOS: online code layout optimization of a running process.

   The paper's pipeline (Fig. 4a): (1) profile the target with LBR sampling,
   (2) run BOLT in the background to produce optimized code C1, then pause
   the target, (3) inject C1 into the address space at fresh addresses,
   (4) update code pointers so C1 runs, and (5) resume.

   Continuous optimization (C_i -> C_{i+1}) goes further than the paper's
   prototype: instead of evacuating stack-live C_i functions by verbatim
   copy and pinning function pointers to a forever-resident C0, it performs
   genuine on-stack replacement. BOLT emits, alongside each optimized
   function, a per-function frame map (old PC -> new PC, see
   {!Ocolos_bolt.Frame_map}); the stop-the-world phase rewrites every live
   frame's return address, every saved callee entry and every paused
   thread's PC directly into C_{i+1} through that map, builds a short
   compensation stub when a PC lands mid-block between exact map points,
   and falls back to a verbatim evacuation copy only when no map covers the
   address at all. The old text — including C0's [bolt.org.text], even for
   never-returning entry functions — is then unmapped immediately, so after
   convergence exactly one code version is resident (plus transient stub /
   copy residue that a reachability-proven GC reaps as frames drain). *)

open Ocolos_isa
open Ocolos_binary
open Ocolos_proc
open Ocolos_profiler
open Ocolos_bolt

type config = {
  bolt : Bolt.config;
  perf : Perf.config;
  cost : Cost.t;
  patch_all_direct_calls : bool; (* ablation: paper found this useless *)
  verify_gc : bool; (* scan for dangling pointers after GC *)
  fault : Ocolos_util.Fault.t option; (* injection registry consulted by replace_code *)
}

let default_config =
  { bolt = Bolt.default_config;
    perf = Perf.default_config;
    cost = Cost.default;
    patch_all_direct_calls = false;
    verify_gc = true;
    fault = None }

type replacement_stats = {
  version : int; (* the new code version number (C_version) *)
  vtable_entries_patched : int;
  call_sites_patched : int;
  stack_live_funcs : int;
  frames_migrated : int; (* live frames / PCs rewritten into C_{i+1} *)
  osr_stubs : int; (* compensation stubs generated for mid-block PCs *)
  copied_funcs : int; (* copy-fallback evacuations (no usable frame map) *)
  funcs_optimized : int;
  code_bytes_injected : int;
  gc_bytes_freed : int;
  pause_seconds : float;
}

(* Transient code left behind by one OSR round: compensation stubs and
   copy-fallback evacuations. Each is tagged with the round that created
   it; the round's inherited jump-table words (below) drain with it. *)
type residue_kind = Stub | Copy

type residue = {
  rs_fid : int;
  rs_kind : residue_kind;
  rs_round : int;
  rs_ranges : (int * int) list; (* [start, end) *)
}

type t = {
  proc : Proc.t;
  original : Binary.t;
  config : config;
  c0_entry : (int, int) Hashtbl.t;
  c0_ranges : (int, (int * int) list) Hashtbl.t;
  offline_sites : (int * int * int) array; (* (site addr, owner fid, callee fid) *)
  vtable_slots : (int * int * int) array; (* (vid, slot, fid) *)
  entry_fid_any : (int, int) Hashtbl.t;
      (* entry address of any version ever live -> fid; the
         wrapFuncPtrCreation hook resolves through this to the *current*
         entry, so function pointers always denote the live version *)
  mutable version : int;
  mutable current : Binary.t; (* live symbol/code view, for perf2bolt & BOLT *)
  mutable current_entry : (int, int) Hashtbl.t; (* fid -> live entry *)
  resident : (int, (int * int) list) Hashtbl.t;
      (* fid -> code ranges of its current (single) resident version *)
  mutable residue : residue list;
  mutable inherited : (int * int list) list;
      (* (round, word addrs): jump-table words of a retired version that the
         round's residue still dispatches through; reaped when the round's
         residue drains *)
  mutable rounds : int; (* monotone OSR round counter (never rolled back) *)
  init_addrs : (int, unit) Hashtbl.t;
      (* every initialized data word OCOLOS tracks (for snapshot word-value
         capture and inherited-word classification) *)
  table_addrs : (int, unit) Hashtbl.t;
      (* subset of init_addrs whose registered value was a code address *)
  mutable session : Perf.session option;
  mutable cfgs : (Binary.t * (int -> Ocolos_bolt.Cfg.reconstructed)) option;
      (* the campaign's CFG memo over [current]: filled by [run_bolt],
         reused then dropped by [validate_result], dropped too when
         [current] is rebuilt *)
}

(* ---- attach ---- *)

let attach ?(config = default_config) (proc : Proc.t) =
  let original = proc.Proc.binary in
  let c0_entry = Hashtbl.create 256 and c0_ranges = Hashtbl.create 256 in
  Array.iter
    (fun (s : Binary.func_sym) ->
      Hashtbl.replace c0_entry s.Binary.fs_fid s.Binary.fs_entry;
      Hashtbl.replace c0_ranges s.Binary.fs_fid
        (List.map (fun r -> (r.Binary.r_start, r.Binary.r_start + r.Binary.r_size)) s.Binary.fs_ranges))
    original.Binary.symbols;
  (* Offline analysis: parse every direct call site from the binary, with
     its owning function and callee, to shorten the stop-the-world phase
     (Section IV). *)
  let index = Binary.build_addr_index original in
  let entry_fid = Hashtbl.create 256 in
  Hashtbl.iter (fun fid entry -> Hashtbl.replace entry_fid entry fid) c0_entry;
  let offline_sites =
    Binary.direct_call_sites original
    |> List.filter_map (fun (site, target) ->
           match (Binary.index_lookup index site, Hashtbl.find_opt entry_fid target) with
           | Some owner, Some callee -> Some (site, owner, callee)
           | _, _ -> None)
    |> Array.of_list
  in
  let vtable_slots =
    Array.to_list original.Binary.vtables
    |> List.concat_map (fun vt ->
           Array.to_list vt.Binary.vt_entries
           |> List.mapi (fun slot entry ->
                  match Hashtbl.find_opt entry_fid entry with
                  | Some fid -> [ (vt.Binary.vt_id, slot, fid) ]
                  | None -> [])
           |> List.concat)
    |> Array.of_list
  in
  let current_entry = Hashtbl.copy c0_entry in
  let resident = Hashtbl.create 256 in
  Hashtbl.iter (fun fid ranges -> Hashtbl.replace resident fid ranges) c0_ranges;
  let init_addrs = Hashtbl.create 256 and table_addrs = Hashtbl.create 64 in
  List.iter
    (fun (a, v) ->
      Hashtbl.replace init_addrs a ();
      if Hashtbl.mem original.Binary.code v then Hashtbl.replace table_addrs a ())
    original.Binary.global_init;
  let t =
    { proc;
      original;
      config;
      c0_entry;
      c0_ranges;
      offline_sites;
      vtable_slots;
      entry_fid_any = entry_fid;
      version = 0;
      current = original;
      current_entry;
      resident;
      residue = [];
      inherited = [];
      rounds = 0;
      init_addrs;
      table_addrs;
      session = None;
      cfgs = None }
  in
  (* The wrapFuncPtrCreation hook: a created function pointer always
     denotes the current version of its function, so no pointer is ever
     pinned to a retired version's text. Stored pointer values created
     before a replacement are migrated by the replacement's data scan. *)
  proc.Proc.hooks.translate_fp <-
    Some
      (fun addr ->
        match Hashtbl.find_opt t.entry_fid_any addr with
        | Some fid -> (
          match Hashtbl.find_opt t.current_entry fid with Some e -> e | None -> addr)
        | None -> addr);
  t

(* ---- profiling ---- *)

let start_profiling t =
  if t.session <> None then invalid_arg "Ocolos.start_profiling: already profiling";
  t.session <- Some (Perf.start ~cfg:t.config.perf ?fault:t.config.fault t.proc)

(* Returns the aggregated profile and the modeled perf2bolt time. *)
let stop_profiling t =
  match t.session with
  | None -> invalid_arg "Ocolos.stop_profiling: not profiling"
  | Some session ->
    t.session <- None;
    let samples = Perf.stop session in
    let profile = Perf2bolt.convert ~binary:t.current ?fault:t.config.fault samples in
    let seconds =
      Cost.perf2bolt_seconds t.config.cost ~records:(Perf.record_count samples)
    in
    (profile, seconds)

(* ---- BOLT (background) ---- *)

(* Degradation tiers (supervisor-driven): [`Full] is the configured BOLT;
   [`Func_reorder_only] drops block reordering, hot/cold splitting and
   peephole so only the C3/PH function order remains — the cheapest layout
   that still captures most of the paper's i-cache benefit, used after a
   full campaign has failed. *)
type tier = [ `Full | `Func_reorder_only ]

let run_bolt ?(tier : tier = `Full) ?(exclude = []) t profile =
  let config =
    let base = t.config.bolt in
    let base =
      if exclude = [] then base
      else { base with Bolt.exclude = exclude @ base.Bolt.exclude }
    in
    match tier with
    | `Full -> base
    | `Func_reorder_only ->
      { base with Bolt.reorder_blocks = false; split_functions = false; peephole = false }
  in
  (* Calls to non-optimized functions resolve to their current entries:
     with true OSR there is no pinned C0 to fall back to. *)
  let extern_entry fid = Hashtbl.find_opt t.current_entry fid in
  (* BOLT places the optimized text above the binary's sections, but the
     live process maps more than the binary describes (thread-local blocks,
     the heap, residue). A zero-size hull marker at the top of everything
     mapped keeps the emission from landing on live data. *)
  let binary =
    let mem = t.proc.Proc.mem in
    let data_top =
      Ocolos_util.Itbl.fold (fun a _ acc -> max a acc) mem.Addr_space.data (-1)
    in
    let code_top =
      Hashtbl.fold (fun a i acc -> max acc (a + Instr.size i)) mem.Addr_space.code 0
    in
    let hull = max (max (data_top + 1) code_top) mem.Addr_space.next_map_base in
    if hull <= Bolt.sections_end t.current then t.current
    else
      { t.current with
        Binary.sections =
          t.current.Binary.sections
          @ [ { Binary.sec_name = "mem.hull"; sec_base = hull; sec_size = 0 } ] }
  in
  (* [binary] differs from [current] only in its sections, which CFG
     reconstruction never reads: the memo over [current] serves both BOLT
     and the validator. *)
  let cfg_of = Ocolos_bolt.Cfg.memoize t.current in
  t.cfgs <- Some (t.current, cfg_of);
  let result =
    Bolt.run ~config ~binary ~extern_entry ?fault:t.config.fault ~cfg_of ~profile ()
  in
  (* The bolt.miscompile domain fires *after* every pass has finished: the
     result is silently corrupted in place of crashing, so nothing but the
     Tier-1 validator (and, for its deliberate jump-table blind spot, the
     Tier-2 shadow checker) stands between the corruption and the live
     process. [Fault.Killed] still escapes — a dead daemon is the kill
     domain's business, not a miscompile. *)
  let result =
    match t.config.fault with
    | None -> result
    | Some f ->
      List.fold_left
        (fun result point ->
          match Ocolos_util.Fault.cut f point with
          | () -> result
          | exception Ocolos_util.Fault.Injected (p, hit) ->
            Ocolos_obs.Trace.mark "fault.fired"
              ~attrs:[ ("point", Ocolos_obs.Trace.S p); ("hit", Ocolos_obs.Trace.I hit) ];
            Ocolos_obs.Metrics.count ~labels:[ ("point", p) ] "ocolos_fault_fired_total" 1;
            Ocolos_obs.Events.log "fault.fired"
              ~fields:[ ("point", Ocolos_obs.Trace.S p); ("hit", Ocolos_obs.Trace.I hit) ];
            let result, mutations = Miscompile.apply ~point:p ~salt:hit result in
            Ocolos_obs.Events.log "bolt.miscompile.applied"
              ~fields:
                [ ("point", Ocolos_obs.Trace.S p);
                  ("mutations", Ocolos_obs.Trace.I mutations) ];
            Ocolos_obs.Metrics.count ~labels:[ ("point", p) ]
              "ocolos_miscompile_mutations_total" mutations;
            result)
        result Miscompile.points
  in
  let seconds = Cost.bolt_seconds t.config.cost ~work_instrs:result.Bolt.work_instrs in
  (result, seconds)

(* Tier-1 miscompile containment: validate a BOLT result against the
   binary it was derived from, under the same external-entry resolution
   [run_bolt] used. Must run before {!replace_code} / {!Txn.replace_code};
   the verdict is logged as a [validate.verdict] event (with one
   [validate.reject] event per rejection) and [ocolos_validate_*] metrics. *)
let validate_result t (result : Bolt.result) =
  Ocolos_obs.Trace.span "ocolos.validate" @@ fun sp ->
  let cfg_of =
    match t.cfgs with Some (b, cfg_of) when b == t.current -> Some cfg_of | _ -> None
  in
  t.cfgs <- None;
  let report =
    Validate.run ~binary:t.current
      ~extern_entry:(fun fid -> Hashtbl.find_opt t.current_entry fid)
      ?cfg_of result
  in
  Ocolos_obs.Trace.set_attr sp "funcs" (Ocolos_obs.Trace.I report.Validate.rp_funcs);
  Ocolos_obs.Trace.set_attr sp "rejections"
    (Ocolos_obs.Trace.I (List.length report.Validate.rp_rejections));
  Ocolos_obs.Metrics.count "ocolos_validate_runs_total" 1;
  Ocolos_obs.Metrics.count "ocolos_validate_funcs_total" report.Validate.rp_funcs;
  List.iter
    (fun (rj : Validate.rejection) ->
      Ocolos_obs.Metrics.count ~labels:[ ("check", rj.Validate.rj_check) ]
        "ocolos_validate_rejections_total" 1;
      Ocolos_obs.Events.log "validate.reject"
        ~fields:
          [ ("fid", Ocolos_obs.Trace.I rj.Validate.rj_fid);
            ("check", Ocolos_obs.Trace.S rj.Validate.rj_check);
            ("reason", Ocolos_obs.Trace.S rj.Validate.rj_reason) ])
    report.Validate.rp_rejections;
  Ocolos_obs.Events.log "validate.verdict"
    ~fields:
      [ ("ok", Ocolos_obs.Trace.B (Validate.ok report));
        ("funcs", Ocolos_obs.Trace.I report.Validate.rp_funcs);
        ("blocks", Ocolos_obs.Trace.I report.Validate.rp_blocks);
        ("rejections", Ocolos_obs.Trace.I (List.length report.Validate.rp_rejections)) ];
  report

(* ---- code replacement ---- *)

(* Every named fault-injection point in [replace_code], in the order the
   stop-the-world phase reaches them. Points inside loops are hit once per
   iteration, so an [Nth] schedule can fire mid-mutation; the OSR points
   ([osr_frame] once per paused thread, [osr_map] once per doomed pointer
   resolution, [osr_stub] once per compensation-stub build) and the gc_*
   and [verify] points are reachable only in rounds that retire text.
   [proc.pause_timeout] models a thread that cannot reach a safe pause
   point within the deadline; [mem.exhausted] an address space with no room
   for the incoming text — both abort the transaction like any other
   injected fault. *)
let injection_points =
  [ "proc.pause_timeout";
    "pause";
    "mem.exhausted";
    "inject_code";
    "inject_data";
    "sym_index";
    "fp_pin";
    "vtable_patch";
    "call_patch";
    "osr_frame";
    "osr_map";
    "osr_stub";
    "gc_unmap";
    "gc_reap";
    "verify";
    "commit" ]

(* The full pipeline-wide catalog, grouped by fault domain, in pipeline
   order: profiling, aggregation, BOLT, then the stop-the-world points
   above. This is what the CLI validates [--fault] specs against and what
   the chaos harness sweeps. *)
let fault_catalog =
  [ "perf.detach";
    "perf.sample_drop";
    "perf.sample_truncate";
    "perf.sample_corrupt";
    "perf2bolt.stale_syms";
    "perf2bolt.aggregate";
    "bolt.cfg";
    "bolt.bb_reorder";
    "bolt.func_reorder";
    "bolt.peephole" ]
  @ Miscompile.points @ injection_points

module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics

(* Register a hit at a fault-injection point. Hits are counted per point in
   the ambient metrics registry; a firing fault additionally leaves an
   instant event on the trace before the exception unwinds into {!Txn}. *)
let cut t point =
  match t.config.fault with
  | None -> ()
  | Some f -> (
    Metrics.count ~labels:[ ("point", point) ] "ocolos_fault_cuts_total" 1;
    try Ocolos_util.Fault.cut f point with
    | Ocolos_util.Fault.Injected (p, hit) as e ->
      Trace.mark "fault.fired" ~attrs:[ ("point", Trace.S p); ("hit", Trace.I hit) ];
      Metrics.count ~labels:[ ("point", p) ] "ocolos_fault_fired_total" 1;
      Ocolos_obs.Events.log "fault.fired"
        ~fields:[ ("point", Trace.S p); ("hit", Trace.I hit) ];
      raise e
    | Ocolos_util.Fault.Killed (p, hit) as e ->
      Trace.mark "fault.killed" ~attrs:[ ("point", Trace.S p); ("hit", Trace.I hit) ];
      Metrics.count ~labels:[ ("point", p) ] "ocolos_fault_killed_total" 1;
      Ocolos_obs.Events.log "fault.killed"
        ~fields:[ ("point", Trace.S p); ("hit", Trace.I hit) ];
      raise e)

let in_range (s, e) addr = addr >= s && addr < e

let live_frames_and_pcs t =
  Array.to_list t.proc.Proc.threads
  |> List.concat_map (fun (thread : Ocolos_proc.Thread.t) ->
         if Ocolos_proc.Thread.is_running thread then
           thread.Ocolos_proc.Thread.pc
           :: Ocolos_proc.Thread.return_addresses thread
         else [])

(* Functions currently on some thread's stack (by return address or PC). *)
let stack_live_fids t =
  let fids = Hashtbl.create 32 in
  List.iter
    (fun addr ->
      match Addr_space.fid_of_addr t.proc.Proc.mem addr with
      | Some fid -> Hashtbl.replace fids fid ()
      | None -> ())
    (live_frames_and_pcs t);
  fids

(* ---- resident-footprint accounting ---- *)

let residue_bytes t =
  List.fold_left
    (fun acc r -> acc + List.fold_left (fun a (s, e) -> a + (e - s)) 0 r.rs_ranges)
    0 t.residue

let inherited_words t =
  List.fold_left (fun acc (_, addrs) -> acc + List.length addrs) 0 t.inherited

(* Transient bytes beyond the single resident version: stub/copy residue
   plus inherited jump-table words (8 bytes each). Reaches 0 after
   convergence, once every migrated frame has drained. *)
let resident_extra_bytes t = residue_bytes t + (8 * inherited_words t)

(* Bytes of the original [.text] (C0 / [bolt.org.text]) still mapped. True
   OSR drives this to 0 once every function has been re-emitted. *)
let c0_text_resident_bytes t =
  match Binary.section_named t.original ".text" with
  | None -> 0
  | Some s ->
    let mem = t.proc.Proc.mem in
    let e = s.Binary.sec_base + s.Binary.sec_size in
    let bytes = ref 0 and addr = ref s.Binary.sec_base in
    while !addr < e do
      match Addr_space.read_code mem !addr with
      | Some i ->
        bytes := !bytes + Instr.size i;
        addr := !addr + Instr.size i
      | None -> incr addr
    done;
    !bytes

let inherited_mem t a = List.exists (fun (_, addrs) -> List.mem a addrs) t.inherited

(* ---- the OSR engine ----

   One migration context per round. [ox_doomed] is the text being retired
   this round (every resident range of every re-emitted function — which in
   round 1 includes their C0 ranges, retiring [bolt.org.text]); frames, PCs
   and scratch registers pointing into it are rewritten through the frame
   maps, via compensation stubs, or — last resort — into verbatim copies.
   [ox_cut] injects the round's fault points; {!revert} passes a no-op so
   the emergency brake cannot itself fault. *)
type osr_ctx = {
  ox_doomed : (int * int) array; (* sorted, disjoint *)
  ox_fms : (int, Frame_map.t) Hashtbl.t;
  ox_old_entry_fid : (int, int) Hashtbl.t; (* doomed entry -> fid *)
  ox_desired : int -> int; (* fid -> entry it should resolve to now *)
  ox_stubs : (int, int) Hashtbl.t; (* old pc -> stub entry *)
  mutable ox_residue : residue list;
  ox_addr_map : (int, int) Hashtbl.t; (* old addr -> copy/stub addr *)
  ox_copied : (int, unit) Hashtbl.t; (* fids already copy-evacuated *)
  mutable ox_stub_count : int;
  mutable ox_copy_count : int;
  ox_round : int;
  ox_cut : string -> unit;
}

let in_doomed ctx addr =
  let d = ctx.ox_doomed in
  let lo = ref 0 and hi = ref (Array.length d - 1) and found = ref false in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s, e = d.(mid) in
    if addr < s then hi := mid - 1
    else if addr >= e then lo := mid + 1
    else begin
      found := true;
      lo := !hi + 1
    end
  done;
  !found

let make_osr_ctx t ~doomed ~fms ~desired ~round ~cut_fn =
  let arr = Array.of_list doomed in
  Array.sort compare arr;
  let fm_tbl = Hashtbl.create 64 in
  List.iter (fun (fid, fm) -> Hashtbl.replace fm_tbl fid fm) fms;
  let ctx =
    { ox_doomed = arr;
      ox_fms = fm_tbl;
      ox_old_entry_fid = Hashtbl.create 64;
      ox_desired = desired;
      ox_stubs = Hashtbl.create 16;
      ox_residue = [];
      ox_addr_map = Hashtbl.create 256;
      ox_copied = Hashtbl.create 16;
      ox_stub_count = 0;
      ox_copy_count = 0;
      ox_round = round;
      ox_cut = cut_fn }
  in
  Hashtbl.iter
    (fun entry fid -> if in_doomed ctx entry then Hashtbl.replace ctx.ox_old_entry_fid entry fid)
    t.entry_fid_any;
  ctx

(* Last-resort migration: evacuate the function's doomed ranges by verbatim
   copy, rebasing intra-function targets and redirecting cross-function
   entry references out of the doomed region. Idempotent per fid; the copy
   is registered as round residue and its address map merged into the
   context so subsequent resolutions land in it. *)
let copy_fallback t ctx fid =
  if not (Hashtbl.mem ctx.ox_copied fid) then begin
    Hashtbl.replace ctx.ox_copied fid ();
    let mem = t.proc.Proc.mem in
    let ranges =
      List.filter
        (fun (s, _) -> in_doomed ctx s)
        (Option.value ~default:[] (Hashtbl.find_opt t.resident fid))
    in
    if ranges <> [] then begin
      let total = List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 ranges in
      let base = Addr_space.reserve_code mem (total + 16) in
      let offsets =
        let cursor = ref base in
        List.map
          (fun (s, e) ->
            let o = (s, e, !cursor - s) in
            cursor := !cursor + (e - s);
            o)
          ranges
      in
      let remap addr =
        List.find_map
          (fun (s, e, delta) -> if addr >= s && addr < e then Some (addr + delta) else None)
          offsets
      in
      let new_ranges = List.map (fun (s, e, delta) -> (s + delta, e + delta)) offsets in
      List.iter
        (fun (s, e) ->
          let addr = ref s in
          while !addr < e do
            match Addr_space.read_code mem !addr with
            | None -> incr addr (* padding *)
            | Some instr ->
              let instr' =
                match Instr.static_target instr with
                | None -> instr
                | Some target -> (
                  match remap target with
                  | Some d -> Instr.with_target instr d
                  | None ->
                    if in_doomed ctx target then
                      (* Only entries are valid cross-function targets. *)
                      match Hashtbl.find_opt ctx.ox_old_entry_fid target with
                      | Some callee -> Instr.with_target instr (ctx.ox_desired callee)
                      | None -> instr
                    else instr)
              in
              let dst = match remap !addr with Some d -> d | None -> assert false in
              Addr_space.write_code mem dst instr';
              Hashtbl.replace ctx.ox_addr_map !addr dst;
              addr := !addr + Instr.size instr
          done)
        ranges;
      Addr_space.add_sym_ranges mem
        (List.map (fun (s, e) -> { Addr_space.sr_start = s; sr_end = e; sr_fid = fid }) new_ranges);
      ctx.ox_residue <-
        { rs_fid = fid; rs_kind = Copy; rs_round = ctx.ox_round; rs_ranges = new_ranges }
        :: ctx.ox_residue;
      ctx.ox_copy_count <- ctx.ox_copy_count + 1
    end
  end

(* Map a doomed code address without side effects: through the copy/stub
   address map, the entry map, or a frame map's block map. *)
let map_doomed_value t ctx v =
  if not (in_doomed ctx v) then None
  else
    (* Entry addresses resolve through the desired-entry map before the
       copy/stub map: an evacuation copy made for one thread's parked
       frames must not capture other references to the function — calls
       from surviving code belong to the live version's entry, or copies
       chain across rounds and never drain. *)
    match Hashtbl.find_opt ctx.ox_old_entry_fid v with
    | Some fid -> Some (ctx.ox_desired fid)
    | None -> (
      match Hashtbl.find_opt ctx.ox_addr_map v with
      | Some d -> Some d
      | None -> (
        match Addr_space.fid_of_addr t.proc.Proc.mem v with
        | None -> None
        | Some fid -> (
          match Hashtbl.find_opt ctx.ox_fms fid with
          | Some fm -> Frame_map.block_new_start fm v
          | None -> None)))

(* Like {!map_doomed_value}, but evacuates the owning function when no map
   covers the address (jump-table words and residue targets must never be
   left pointing at text about to be unmapped). *)
let map_or_copy t ctx v =
  match map_doomed_value t ctx v with
  | Some d -> Some d
  | None ->
    if in_doomed ctx v then (
      match Addr_space.fid_of_addr t.proc.Proc.mem v with
      | Some fid ->
        copy_fallback t ctx fid;
        Hashtbl.find_opt ctx.ox_addr_map v
      | None -> None)
    else None

exception Unstubbable

(* The compensation stub for a PC that lands mid-block between exact map
   points: re-execute the remainder of the old block (static targets
   relocated out of the doomed region), then jump to the mapped successor
   block in the new text. The tail of the old block re-establishes
   block-local state — that is the compensation — and the appended jump
   hands over at a block boundary, where the frame map is always exact.
   Returns [None] (caller falls back to a copy) when the old bytes cannot
   be read, a target cannot be relocated, or the fallthrough block has no
   mapping. *)
let build_stub t ctx (fm : Frame_map.t) (site : Frame_map.block_site) addr =
  match Hashtbl.find_opt ctx.ox_stubs addr with
  | Some base -> Some base
  | None -> (
    ctx.ox_cut "osr_stub";
    let mem = t.proc.Proc.mem in
    try
      let rev_instrs = ref [] in
      let a = ref addr in
      while !a < site.Frame_map.bs_old_end do
        match Addr_space.read_code mem !a with
        | None -> raise Unstubbable
        | Some i ->
          rev_instrs := i :: !rev_instrs;
          a := !a + Instr.size i
      done;
      let reloc i =
        match Instr.static_target i with
        | None -> i
        | Some tgt ->
          if not (in_doomed ctx tgt) then i
          else (
            match Hashtbl.find_opt ctx.ox_old_entry_fid tgt with
            | Some callee -> Instr.with_target i (ctx.ox_desired callee)
            | None -> (
              match Frame_map.block_new_start fm tgt with
              | Some n -> Instr.with_target i n
              | None -> raise Unstubbable))
      in
      let instrs = List.rev_map reloc !rev_instrs in
      (match instrs with [] -> raise Unstubbable | _ :: _ -> ());
      let closed =
        let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
        match last instrs with
        (* A trailing conditional branch still needs the fallthrough. *)
        | Instr.Jump _ | Instr.JumpInd _ | Instr.Ret | Instr.Halt -> instrs
        | _ -> (
          match Frame_map.block_new_start fm site.Frame_map.bs_old_end with
          | Some n -> instrs @ [ Instr.Jump n ]
          | None -> raise Unstubbable)
      in
      let bytes = List.fold_left (fun acc i -> acc + Instr.size i) 0 closed in
      let base = Addr_space.reserve_code mem (bytes + 8) in
      let cursor = ref base in
      List.iter
        (fun i ->
          Addr_space.write_code mem !cursor i;
          cursor := !cursor + Instr.size i)
        closed;
      Addr_space.add_sym_ranges mem
        [ { Addr_space.sr_start = base; sr_end = base + bytes; sr_fid = fm.Frame_map.fm_fid } ];
      ctx.ox_residue <-
        { rs_fid = fm.Frame_map.fm_fid;
          rs_kind = Stub;
          rs_round = ctx.ox_round;
          rs_ranges = [ (base, base + bytes) ] }
        :: ctx.ox_residue;
      Hashtbl.replace ctx.ox_stubs addr base;
      ctx.ox_stub_count <- ctx.ox_stub_count + 1;
      Some base
    with Unstubbable -> None)

(* Migrate one code pointer held by a thread (PC, return address, saved
   callee entry, scratch register): exact map hit rewrites in place,
   mid-block goes through a compensation stub, anything unmapped lands in a
   copy-fallback evacuation. *)
let resolve_pointer t ctx addr =
  if not (in_doomed ctx addr) then addr
  else begin
    ctx.ox_cut "osr_map";
    match Hashtbl.find_opt ctx.ox_addr_map addr with
    | Some d -> d
    | None -> (
      match Hashtbl.find_opt ctx.ox_old_entry_fid addr with
      | Some fid -> ctx.ox_desired fid
      | None -> (
        let via_copy fid =
          copy_fallback t ctx fid;
          match Hashtbl.find_opt ctx.ox_addr_map addr with Some d -> d | None -> addr
        in
        match Addr_space.fid_of_addr t.proc.Proc.mem addr with
        | None -> addr (* untracked; the post-GC verifier will catch it *)
        | Some fid -> (
          match Hashtbl.find_opt ctx.ox_fms fid with
          | None -> via_copy fid
          | Some fm -> (
            match Frame_map.resolve fm addr with
            | Frame_map.Exact n -> n
            | Frame_map.Mid_block site -> (
              match build_stub t ctx fm site addr with
              | Some s -> s
              | None -> via_copy fid)
            | Frame_map.Unmapped -> via_copy fid))))
  end

(* Register migration for one paused thread. Two rules:
   - a register holding a doomed function entry (a function pointer created
     before the replacement, awaiting its CallInd or Store) is moved to the
     desired entry;
   - a scratch register about to be consumed by an indirect transfer
     (JumpInd/CallInd reached from the PC before the register is
     redefined — the jump-table and indirect-call dispatch windows) is
     resolved like a PC.
   Ordinary integers colliding with a doomed entry are indistinguishable
   from pointers (same class of risk as the data-word scan); the address
   ranges involved make collisions vanishingly unlikely in practice. *)
let migrate_registers t ctx (thread : Ocolos_proc.Thread.t) =
  let regs = thread.Ocolos_proc.Thread.regs in
  Array.iteri
    (fun i v ->
      match Hashtbl.find_opt ctx.ox_old_entry_fid v with
      | Some fid -> regs.(i) <- ctx.ox_desired fid
      | None -> ())
    regs;
  let written = Array.make (Array.length regs) false in
  let mem = t.proc.Proc.mem in
  let pc = ref thread.Ocolos_proc.Thread.pc and stop = ref false in
  while not !stop do
    match Addr_space.read_code mem !pc with
    | None -> stop := true
    | Some instr ->
      (match instr with
      | Instr.JumpInd r | Instr.CallInd r ->
        if (not written.(r)) && in_doomed ctx regs.(r) then
          regs.(r) <- resolve_pointer t ctx regs.(r)
      | _ -> ());
      (match instr with
      | Instr.Alu (_, d, _, _)
      | Instr.Alui (_, d, _, _)
      | Instr.Movi (d, _)
      | Instr.Load (d, _, _)
      | Instr.FpCreate (d, _)
      | Instr.VtLoad (d, _, _)
      | Instr.Rand (d, _) -> written.(d) <- true
      | _ -> ());
      if Instr.is_control_flow instr || instr = Instr.Halt then stop := true
      else pc := !pc + Instr.size instr
  done

(* On-stack replacement proper: rewrite every running thread's PC, frame
   return addresses and saved callee entries into the surviving text.
   Returns the number of frames/PCs rewritten. *)
let migrate_threads t ctx =
  let migrated = ref 0 in
  Array.iter
    (fun (thread : Ocolos_proc.Thread.t) ->
      if Ocolos_proc.Thread.is_running thread then begin
        ctx.ox_cut "osr_frame";
        migrate_registers t ctx thread;
        let pc' = resolve_pointer t ctx thread.Ocolos_proc.Thread.pc in
        if pc' <> thread.Ocolos_proc.Thread.pc then begin
          thread.Ocolos_proc.Thread.pc <- pc';
          incr migrated
        end;
        List.iter
          (fun (frame : Ocolos_proc.Thread.frame) ->
            let touched = ref false in
            let r' = resolve_pointer t ctx frame.Ocolos_proc.Thread.ret_addr in
            if r' <> frame.Ocolos_proc.Thread.ret_addr then begin
              frame.Ocolos_proc.Thread.ret_addr <- r';
              touched := true
            end;
            let c' = resolve_pointer t ctx frame.Ocolos_proc.Thread.callee_entry in
            if c' <> frame.Ocolos_proc.Thread.callee_entry then begin
              frame.Ocolos_proc.Thread.callee_entry <- c';
              touched := true
            end;
            if !touched then incr migrated)
          (Ocolos_proc.Thread.live_frames thread)
      end)
    t.proc.Proc.threads;
  !migrated

(* Sweep the whole surviving code map for static targets into the doomed
   region and redirect them. Covers prior rounds' residue (whose calls were
   resolved to the retiring version's entries when built), C0/any-version
   call sites the offline table missed, and FpCreate sites whose static
   operand names a retiring entry. *)
let redirect_code_references t ctx =
  let mem = t.proc.Proc.mem in
  let sites = ref [] in
  Hashtbl.iter
    (fun addr instr ->
      if not (in_doomed ctx addr) then
        match Instr.static_target instr with
        | Some tgt when in_doomed ctx tgt -> sites := (addr, instr, tgt) :: !sites
        | Some _ | None -> ())
    mem.Addr_space.code;
  List.iter
    (fun (addr, instr, tgt) ->
      match map_or_copy t ctx tgt with
      | Some d when d <> tgt -> Addr_space.write_code mem addr (Instr.with_target instr d)
      | Some _ | None -> ())
    !sites

(* Scan every initialized data word for values inside the doomed region and
   rewrite them: jump-table entries, and stored function-pointer values —
   including ones stashed in TLS at run time, which no init-address walk
   would find. Words registered as jump-table words of a retiring version
   are additionally classified as inherited (this round's residue still
   dispatches through them; they drain with it). A plain integer colliding
   with a doomed code address would be rewritten too — the same accepted
   risk class as the original jump-table patching. Returns
   (words patched, newly inherited word addresses). *)
let patch_data_words t ctx =
  let mem = t.proc.Proc.mem in
  let words =
    Ocolos_util.Itbl.fold
      (fun a v acc -> if in_doomed ctx v then (a, v) :: acc else acc)
      mem.Addr_space.data []
  in
  let patched = ref 0 and inherited = ref [] in
  List.iter
    (fun (a, v) ->
      if Hashtbl.mem t.table_addrs a && (not (inherited_mem t a)) && not (List.mem a !inherited)
      then inherited := a :: !inherited;
      match map_or_copy t ctx v with
      | Some d when d <> v ->
        Addr_space.write_data mem a d;
        incr patched
      | Some _ | None -> ())
    words;
  (!patched, !inherited)

(* Reap residue (stubs and copies) that no thread can reach anymore —
   reachability is PCs, return addresses, saved callee entries and register
   values of running threads (registers conservatively retain: a scratch
   register may legitimately hold a residue block address mid-dispatch).
   Inherited jump-table words whose round has fully drained go with it.
   Returns (bytes freed, reaped code ranges). *)
let reap_residue t ~cut:cut_fn =
  let mem = t.proc.Proc.mem in
  let live =
    live_frames_and_pcs t
    @ (Array.to_list t.proc.Proc.threads
      |> List.concat_map (fun (th : Ocolos_proc.Thread.t) ->
             if Ocolos_proc.Thread.is_running th then
               Array.to_list th.Ocolos_proc.Thread.regs
             else []))
  in
  let still_needed r =
    List.exists (fun addr -> List.exists (fun rg -> in_range rg addr) r.rs_ranges) live
  in
  let keep, reap = List.partition still_needed t.residue in
  (* Liveness is transitive: a parked copy may call into another copy (its
     callee was itself evacuated in a later round), so residue referenced
     by code that will stay mapped must stay too. Mutually-dead copies may
     still die together — only references from surviving code promote. *)
  let keep = ref keep and reap = ref reap in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let in_reap addr =
      List.exists
        (fun r -> List.exists (fun rg -> in_range rg addr) r.rs_ranges)
        !reap
    in
    let promoted, dead =
      List.partition
        (fun r ->
          Hashtbl.fold
            (fun addr instr acc ->
              acc
              ||
              match Instr.static_target instr with
              | Some tgt ->
                List.exists (fun rg -> in_range rg tgt) r.rs_ranges && not (in_reap addr)
              | None -> false)
            mem.Addr_space.code false)
        !reap
    in
    if promoted <> [] then begin
      keep := !keep @ promoted;
      reap := dead;
      continue_ := true
    end
  done;
  let keep = !keep and reap = !reap in
  let bytes = ref 0 in
  List.iter
    (fun r ->
      cut_fn "gc_reap";
      List.iter
        (fun (s, e) ->
          let addr = ref s in
          while !addr < e do
            match Addr_space.read_code mem !addr with
            | Some instr ->
              bytes := !bytes + Instr.size instr;
              Addr_space.remove_code mem !addr;
              addr := !addr + Instr.size instr
            | None -> incr addr
          done;
          Addr_space.remove_sym_ranges mem ~pred:(fun sr ->
              sr.Addr_space.sr_start >= s && sr.Addr_space.sr_start < e))
        r.rs_ranges)
    reap;
  t.residue <- keep;
  let rounds_alive = List.map (fun r -> r.rs_round) keep in
  let keep_inh, reap_inh =
    List.partition (fun (rnd, _) -> List.mem rnd rounds_alive) t.inherited
  in
  List.iter
    (fun (_, addrs) ->
      List.iter
        (fun a ->
          Addr_space.remove_data mem a;
          Hashtbl.remove t.init_addrs a;
          Hashtbl.remove t.table_addrs a;
          bytes := !bytes + 8)
        addrs)
    reap_inh;
  t.inherited <- keep_inh;
  (!bytes, List.concat_map (fun r -> r.rs_ranges) reap)

(* On-demand residue GC between replacements (e.g. the daemon's idle tick):
   as frames drain past their migrated program points, stubs and copies
   become unreachable without another replacement to notice. Pauses the
   process around the reachability proof if it isn't already paused.
   Returns bytes freed. *)
let gc_residue t =
  let was_paused = t.proc.Proc.paused in
  if not was_paused then Proc.pause t.proc;
  let bytes, _ = reap_residue t ~cut:(fun _ -> ()) in
  if not was_paused then Proc.resume t.proc;
  if bytes > 0 then Metrics.count "ocolos_gc_bytes_freed_total" bytes;
  bytes

exception Dangling_pointer of string

(* Safety check after GC: no reachable code pointer may reference freed
   code. Scans v-tables, thread PCs/frames, patched call sites, every code
   address the execution engines hold (cached blocks, chain links, inline
   caches, per-thread resume memos) and — because true OSR retires whole
   versions — every static target in the surviving code map. With
   [freed = []] the scan runs in global mode: every scanned pointer must be
   mapped, the CI smoke test's whole-process audit. *)
let verify_no_dangling t ~freed =
  let mem = t.proc.Proc.mem in
  let suspect addr =
    match freed with [] -> true | l -> List.exists (fun r -> in_range r addr) l
  in
  let check what addr =
    if suspect addr && Addr_space.read_code mem addr = None then
      raise (Dangling_pointer (Fmt.str "%s references freed code at 0x%x" what addr))
  in
  Array.iter
    (fun (vid, slot, _) ->
      check (Fmt.str "vtable %d slot %d" vid slot)
        (Addr_space.read_data mem (Addr_space.vtable_base mem vid + slot)))
    t.vtable_slots;
  List.iter (fun addr -> check "thread stack/pc" addr) (live_frames_and_pcs t);
  Array.iter
    (fun (site, _, _) ->
      match Addr_space.read_code mem site with
      | Some (Instr.Call target) -> check (Fmt.str "call site 0x%x" site) target
      | Some _ | None -> ())
    t.offline_sites;
  List.iter
    (fun (label, addr) -> check (Fmt.str "engine %s" label) addr)
    (Proc.engine_code_pointers t.proc);
  Hashtbl.iter
    (fun addr instr ->
      match Instr.static_target instr with
      | Some target -> check (Fmt.str "instr at 0x%x" addr) target
      | None -> ())
    mem.Addr_space.code

(* Rebuild the live binary view: code is snapshotted from the process,
   each function's ranges are its resident version plus any residue it
   owns, entries come from [current_entry] (update it first), and the
   extra sections/init keep the next BOLT round allocating above
   everything mapped. *)
let refresh_current t ~name_suffix ~extra_sections ~extra_init =
  t.cfgs <- None (* it decodes the view being replaced *);
  let mem = t.proc.Proc.mem in
  let code = Hashtbl.copy mem.Addr_space.code in
  let code_order =
    let arr = Array.make (Hashtbl.length code) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun addr _ ->
        arr.(!i) <- addr;
        incr i)
      code;
    Array.sort compare arr;
    arr
  in
  let residue_by_fid = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let ranges =
        List.map (fun (s, e) -> { Binary.r_start = s; r_size = e - s }) r.rs_ranges
      in
      Hashtbl.replace residue_by_fid r.rs_fid
        (ranges @ Option.value ~default:[] (Hashtbl.find_opt residue_by_fid r.rs_fid)))
    t.residue;
  let symbols =
    Array.map
      (fun (s : Binary.func_sym) ->
        let fid = s.Binary.fs_fid in
        let res =
          List.map
            (fun (rs, re) -> { Binary.r_start = rs; r_size = re - rs })
            (Option.value ~default:[] (Hashtbl.find_opt t.resident fid))
        in
        let extra = Option.value ~default:[] (Hashtbl.find_opt residue_by_fid fid) in
        { s with
          Binary.fs_entry =
            (match Hashtbl.find_opt t.current_entry fid with
            | Some e -> e
            | None -> s.Binary.fs_entry);
          fs_ranges = res @ extra })
      t.original.Binary.symbols
  in
  let sections =
    List.map
      (fun (s : Binary.section) ->
        if s.Binary.sec_name = ".text" then { s with Binary.sec_name = "bolt.org.text" } else s)
      t.original.Binary.sections
    @ extra_sections
  in
  let entry =
    match Hashtbl.find_opt t.entry_fid_any t.original.Binary.entry with
    | Some fid -> (
      match Hashtbl.find_opt t.current_entry fid with
      | Some e -> e
      | None -> t.original.Binary.entry)
    | None -> t.original.Binary.entry
  in
  t.current <-
    { t.original with
      Binary.name = t.original.Binary.name ^ name_suffix;
      sections;
      code;
      code_order;
      symbols;
      global_init = t.original.Binary.global_init @ extra_init;
      entry }

(* The stop-the-world phase. Pauses the target, injects C_{i+1}, patches
   code pointers, migrates live frames into the new text (OSR) and unmaps
   every retired range, resumes. *)
let replace_code t (result : Bolt.result) : replacement_stats =
  Trace.span "replace.stw" ~attrs:[ ("incoming_version", Trace.I (t.version + 1)) ]
  @@ fun stw_sp ->
  let proc = t.proc in
  let mem = proc.Proc.mem in
  Proc.pause proc;
  cut t "proc.pause_timeout";
  cut t "pause";
  let new_text = result.Bolt.new_text in
  (* 1. Inject the optimized code and its jump-table data. *)
  Trace.span "replace.inject" (fun sp ->
      cut t "mem.exhausted";
      Array.iter
        (fun addr ->
          cut t "inject_code";
          Addr_space.write_code mem addr (Hashtbl.find new_text.Binary.code addr))
        new_text.Binary.code_order;
      List.iter
        (fun (a, v) ->
          cut t "inject_data";
          Addr_space.write_data mem a v)
        new_text.Binary.global_init;
      cut t "sym_index";
      Addr_space.add_sym_ranges mem
        (Array.to_list new_text.Binary.symbols
        |> List.concat_map (fun (s : Binary.func_sym) ->
               List.map
                 (fun (r : Binary.range) ->
                   { Addr_space.sr_start = r.Binary.r_start;
                     sr_end = r.Binary.r_start + r.Binary.r_size;
                     sr_fid = s.Binary.fs_fid })
                 s.Binary.fs_ranges));
      Trace.set_attr sp "instrs" (Trace.I (Array.length new_text.Binary.code_order)));
  let bytes_injected = Binary.text_bytes new_text in
  (* Keep the mmap cursor above the injected section: stub/copy residue is
     reserved from it, and BOLT's 1 MiB guard band keeps the next round's
     emission above the residue in turn. *)
  let new_end = Bolt.sections_end new_text in
  if mem.Addr_space.next_map_base < new_end then
    mem.Addr_space.next_map_base <- (new_end + 0xFFFF) land lnot 0xFFFF;
  (* 2. Entry maps. *)
  let new_entries = Hashtbl.create 64 in
  Array.iter
    (fun (s : Binary.func_sym) -> Hashtbl.replace new_entries s.Binary.fs_fid s.Binary.fs_entry)
    new_text.Binary.symbols;
  let desired_entry fid =
    match Hashtbl.find_opt new_entries fid with
    | Some e -> e
    | None -> (
      match Hashtbl.find_opt t.current_entry fid with
      | Some e -> e
      | None -> Hashtbl.find t.c0_entry fid)
  in
  (* Register the new entries with the wrapFuncPtrCreation hook's entry
     index: pointers created from now on resolve to the live version. *)
  Trace.span "replace.fp_pin" (fun _ ->
      Hashtbl.iter
        (fun fid entry ->
          cut t "fp_pin";
          Hashtbl.replace t.entry_fid_any entry fid)
        new_entries);
  (* 3. Patch v-tables (before the data scan, so slots are never seen as
     doomed values). *)
  let vt_patched = ref 0 in
  Trace.span "replace.vtable_patch" (fun sp ->
      Array.iter
        (fun (vid, slot, fid) ->
          cut t "vtable_patch";
          let addr = Addr_space.vtable_base mem vid + slot in
          let cur = Addr_space.read_data mem addr in
          let want = desired_entry fid in
          if cur <> want then begin
            Addr_space.write_data mem addr want;
            incr vt_patched
          end)
        t.vtable_slots;
      Trace.set_attr sp "patched" (Trace.I !vt_patched));
  (* The doomed text: every resident range of every re-emitted function —
     in each function's first optimization round that is its C0 range, so
     [bolt.org.text] retires piecewise as coverage grows. *)
  let doomed_list =
    Hashtbl.fold
      (fun fid _ acc ->
        match Hashtbl.find_opt t.resident fid with Some ranges -> ranges @ acc | None -> acc)
      new_entries []
  in
  t.rounds <- t.rounds + 1;
  let ctx =
    make_osr_ctx t ~doomed:doomed_list ~fms:result.Bolt.frame_maps ~desired:desired_entry
      ~round:t.rounds
      ~cut_fn:(fun p -> cut t p)
  in
  (* 4. Patch direct calls in stack-live functions (or all, under the
     ablation flag), plus any site still targeting the doomed text. *)
  let live = stack_live_fids t in
  let sites_patched = ref 0 in
  Trace.span "replace.call_patch" (fun sp ->
      Array.iter
        (fun (site, owner, callee) ->
          cut t "call_patch";
          let cur_target =
            match Addr_space.read_code mem site with
            | Some (Instr.Call cur) -> Some cur
            | Some _ | None -> None
          in
          let target_doomed =
            match cur_target with Some cur -> in_doomed ctx cur | None -> false
          in
          if t.config.patch_all_direct_calls || Hashtbl.mem live owner || target_doomed then begin
            let want = desired_entry callee in
            match cur_target with
            | Some cur when cur <> want ->
              Addr_space.write_code mem site (Instr.Call want);
              incr sites_patched
            | Some _ | None -> ()
          end)
        t.offline_sites;
      Trace.set_attr sp "stack_live_funcs" (Trace.I (Hashtbl.length live));
      Trace.set_attr sp "patched" (Trace.I !sites_patched));
  (* 5. On-stack replacement and GC of the retired text. *)
  let frames_migrated = ref 0 and gc_bytes = ref 0 in
  let reaped_ranges = ref [] in
  if doomed_list <> [] then begin
    Trace.span "replace.gc" (fun gc_sp ->
        frames_migrated := migrate_threads t ctx;
        Proc.notify_threads_migrated proc;
        redirect_code_references t ctx;
        let tables_patched, inherited_this = patch_data_words t ctx in
        Trace.set_attr gc_sp "table_entries_patched" (Trace.I tables_patched);
        (* Unmap the retired text immediately — no trampolines, no pinned
           C0. *)
        List.iter
          (fun (s, e) ->
            let addr = ref s in
            while !addr < e do
              match Addr_space.read_code mem !addr with
              | Some instr ->
                cut t "gc_unmap";
                gc_bytes := !gc_bytes + Instr.size instr;
                Addr_space.remove_code mem !addr;
                addr := !addr + Instr.size instr
              | None -> incr addr
            done)
          doomed_list;
        Addr_space.remove_sym_ranges mem ~pred:(fun r -> in_doomed ctx r.Addr_space.sr_start);
        t.residue <- ctx.ox_residue @ t.residue;
        if inherited_this <> [] then t.inherited <- (ctx.ox_round, inherited_this) :: t.inherited;
        let reap_bytes, reaped = reap_residue t ~cut:(fun p -> cut t p) in
        gc_bytes := !gc_bytes + reap_bytes;
        reaped_ranges := reaped;
        Trace.set_attr gc_sp "frames_migrated" (Trace.I !frames_migrated);
        Trace.set_attr gc_sp "osr_stubs" (Trace.I ctx.ox_stub_count);
        Trace.set_attr gc_sp "copied_funcs" (Trace.I ctx.ox_copy_count);
        Trace.set_attr gc_sp "bytes_freed" (Trace.I !gc_bytes));
    if t.config.verify_gc then begin
      cut t "verify";
      Trace.span "replace.verify" (fun _ ->
          verify_no_dangling t ~freed:(doomed_list @ !reaped_ranges))
    end
  end;
  (* 6. Update version state and the live binary view. *)
  cut t "commit";
  Trace.span "replace.commit" (fun _ ->
      t.version <- t.version + 1;
      Array.iter
        (fun (s : Binary.func_sym) ->
          Hashtbl.replace t.resident s.Binary.fs_fid
            (List.map
               (fun (r : Binary.range) -> (r.Binary.r_start, r.Binary.r_start + r.Binary.r_size))
               s.Binary.fs_ranges))
        new_text.Binary.symbols;
      Hashtbl.iter (fun fid e -> Hashtbl.replace t.current_entry fid e) new_entries;
      List.iter
        (fun (a, v) ->
          Hashtbl.replace t.init_addrs a ();
          if Hashtbl.mem new_text.Binary.code v then Hashtbl.replace t.table_addrs a ())
        new_text.Binary.global_init;
      refresh_current t
        ~name_suffix:(Fmt.str ".v%d" t.version)
        ~extra_sections:new_text.Binary.sections ~extra_init:new_text.Binary.global_init);
  (* 7. Stop-the-world cost, then resume. *)
  let sites = !vt_patched + !sites_patched in
  let pause_seconds = Cost.pause_seconds t.config.cost ~sites ~bytes:bytes_injected in
  Trace.set_attr stw_sp "version" (Trace.I t.version);
  Trace.set_attr stw_sp "pause_seconds" (Trace.F pause_seconds);
  Metrics.count "ocolos_replacements_total" 1;
  Metrics.count "ocolos_vtable_entries_patched_total" !vt_patched;
  Metrics.count "ocolos_call_sites_patched_total" !sites_patched;
  Metrics.count "ocolos_code_bytes_injected_total" bytes_injected;
  Metrics.count "ocolos_gc_bytes_freed_total" !gc_bytes;
  Metrics.count "ocolos_frames_migrated_total" !frames_migrated;
  Metrics.count "ocolos_osr_stubs_total" ctx.ox_stub_count;
  Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" pause_seconds;
  Ocolos_obs.Events.log "osr.migrate"
    ~fields:
      [ ("round", Trace.I ctx.ox_round);
        ("version", Trace.I t.version);
        ("frames", Trace.I !frames_migrated);
        ("stubs", Trace.I ctx.ox_stub_count);
        ("copies", Trace.I ctx.ox_copy_count);
        ("resident_extra_bytes", Trace.I (resident_extra_bytes t)) ];
  Proc.resume proc;
  { version = t.version;
    vtable_entries_patched = !vt_patched;
    call_sites_patched = !sites_patched;
    stack_live_funcs = Hashtbl.length live;
    frames_migrated = !frames_migrated;
    osr_stubs = ctx.ox_stub_count;
    copied_funcs = ctx.ox_copy_count;
    funcs_optimized = result.Bolt.funcs_reordered;
    code_bytes_injected = bytes_injected;
    gc_bytes_freed = !gc_bytes;
    pause_seconds }

let version t = t.version
let current_binary t = t.current
let proc t = t.proc
let config t = t.config

(* The function-pointer resolver frozen at call time: independent copies of
   the entry tables, so a shadow clone keeps resolving [FpCreate] against
   the version mix that was live when the clone was taken, immune to later
   replacements or reverts on the real controller (whose own hook reads the
   mutable tables). *)
let frozen_translate_fp t =
  let entry_fid = Hashtbl.copy t.entry_fid_any in
  let current = Hashtbl.copy t.current_entry in
  fun addr ->
    match Hashtbl.find_opt entry_fid addr with
    | Some fid -> (
      match Hashtbl.find_opt current fid with Some e -> e | None -> addr)
    | None -> addr

(* ---- crash recovery ---- *)

(* Re-attach a fresh controller to a process whose previous OCOLOS daemon
   died. Everything a committed replacement did survives in the target —
   injected text, patched v-tables and call sites, the extended symbol
   index — while an aborted transaction left no trace at all ({!Txn}
   rolled back before the old daemon died). The daemon-side state is
   reconstructed from the target as ground truth:

   - code the symbol index places at or above the original image's end
     belongs to injected versions; a function's live entry is the lowest
     such address it owns (emission lays the hot part first), falling back
     to its C0 entry;
   - a function's resident set is its injected ranges plus whatever C0
     ranges are still mapped. Stub/copy residue is indistinguishable from
     live text here and is conservatively treated as resident; the next
     replacement round dooms and re-migrates it through the copy fallback
     (no frame map covers it) like any other old text;
   - every injected range start is registered in the function-pointer entry
     index — a superset of the true entry set, harmless because only
     entries are ever created as pointers;
   - every initialized data word is tracked, but none is classified as a
     reapable jump-table word: without the per-round provenance nothing is
     provably drained, so recovered table words simply stay resident. *)
let reattach ?(config = default_config) (proc : Proc.t) =
  Trace.span "ocolos.reattach" @@ fun sp ->
  let t = attach ~config proc in
  let mem = proc.Proc.mem in
  let orig_end = Bolt.sections_end t.original in
  let injected =
    Array.to_list mem.Addr_space.sym_index
    |> List.filter (fun r -> r.Addr_space.sr_start >= orig_end)
  in
  Trace.set_attr sp "injected_ranges" (Trace.I (List.length injected));
  (match injected with
  | [] -> ()
  | _ :: _ ->
    let entry = Hashtbl.create 64 in
    List.iter
      (fun (r : Addr_space.sym_range) ->
        let fid = r.Addr_space.sr_fid in
        (match Hashtbl.find_opt entry fid with
        | Some e when e <= r.Addr_space.sr_start -> ()
        | Some _ | None -> Hashtbl.replace entry fid r.Addr_space.sr_start);
        Hashtbl.replace t.entry_fid_any r.Addr_space.sr_start fid)
      injected;
    Hashtbl.iter (fun fid e -> Hashtbl.replace t.current_entry fid e) entry;
    Hashtbl.iter
      (fun fid c0ranges ->
        let inj =
          List.filter_map
            (fun (r : Addr_space.sym_range) ->
              if r.Addr_space.sr_fid = fid then Some (r.Addr_space.sr_start, r.Addr_space.sr_end)
              else None)
            injected
        in
        let c0 = List.filter (fun (s, _) -> Addr_space.read_code mem s <> None) c0ranges in
        Hashtbl.replace t.resident fid (inj @ c0))
      t.c0_ranges;
    Hashtbl.reset t.init_addrs;
    Hashtbl.reset t.table_addrs;
    Ocolos_util.Itbl.fold
      (fun a _ () -> Hashtbl.replace t.init_addrs a ())
      mem.Addr_space.data ();
    t.version <- 1;
    let lo = List.fold_left (fun acc r -> min acc r.Addr_space.sr_start) max_int injected in
    let hi = List.fold_left (fun acc r -> max acc r.Addr_space.sr_end) 0 injected in
    (* A hull section over the recovered region and a marker at the highest
       initialized data word keep the next BOLT round's code and table
       allocations above everything present. *)
    let data_top =
      Ocolos_util.Itbl.fold (fun a _ acc -> max a acc) mem.Addr_space.data (-1)
    in
    let extra_init =
      if data_top < 0 then [] else [ (data_top, Addr_space.read_data mem data_top) ]
    in
    refresh_current t ~name_suffix:".recovered"
      ~extra_sections:[ { Binary.sec_name = ".text"; sec_base = lo; sec_size = hi - lo } ]
      ~extra_init;
    Trace.set_attr sp "live_text" (Trace.S (Fmt.str "0x%x-0x%x" lo hi)));
  Trace.set_attr sp "version" (Trace.I t.version);
  Metrics.count "ocolos_reattach_total" 1;
  t

(* ---- controller-state snapshots (for transactional replacement) ----

   [replace_code] mutates, besides the address space and thread state, the
   controller's own view of the live code version. A snapshot captures
   exactly the fields [replace_code] touches — plus the values of every
   tracked data word, which {!revert} needs because the forward data scan
   rewrites stored function pointers and jump-table words in place — so
   that {!Txn} can roll the controller back to C_i alongside the
   address-space undo log, and {!revert} can rebuild C_i from scratch.
   Hash tables are copied on both capture and restore, so one snapshot can
   back any number of rollbacks. ([rounds] is deliberately not captured:
   it is a monotone residue tag and must never move backwards.) *)

type snapshot = {
  sn_version : int;
  sn_current : Binary.t;
  sn_current_entry : (int, int) Hashtbl.t;
  sn_resident : (int, (int * int) list) Hashtbl.t;
  sn_residue : residue list;
  sn_inherited : (int * int list) list;
  sn_entry_fid_any : (int, int) Hashtbl.t;
  sn_init_addrs : (int, unit) Hashtbl.t;
  sn_table_addrs : (int, unit) Hashtbl.t;
  sn_word_values : (int * int) list; (* tracked words' values at capture *)
}

let snapshot t =
  { sn_version = t.version;
    sn_current = t.current;
    sn_current_entry = Hashtbl.copy t.current_entry;
    sn_resident = Hashtbl.copy t.resident;
    sn_residue = t.residue;
    sn_inherited = t.inherited;
    sn_entry_fid_any = Hashtbl.copy t.entry_fid_any;
    sn_init_addrs = Hashtbl.copy t.init_addrs;
    sn_table_addrs = Hashtbl.copy t.table_addrs;
    sn_word_values =
      Hashtbl.fold
        (fun a () acc -> (a, Addr_space.read_data t.proc.Proc.mem a) :: acc)
        t.init_addrs [] }

let restore t s =
  t.version <- s.sn_version;
  t.current <- s.sn_current;
  t.current_entry <- Hashtbl.copy s.sn_current_entry;
  Hashtbl.reset t.resident;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.resident k v) s.sn_resident;
  t.residue <- s.sn_residue;
  t.inherited <- s.sn_inherited;
  Hashtbl.reset t.entry_fid_any;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.entry_fid_any k v) s.sn_entry_fid_any;
  Hashtbl.reset t.init_addrs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.init_addrs k v) s.sn_init_addrs;
  Hashtbl.reset t.table_addrs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.table_addrs k v) s.sn_table_addrs

(* A snapshot describing C0 for a controller whose in-memory history is
   gone (fleet restart after a reattach): C0's bytes live in the original
   binary image, so reverting to it is always possible even though its
   text may long since have been unmapped. *)
let c0_snapshot t =
  let resident = Hashtbl.create 256 in
  Hashtbl.iter (fun fid ranges -> Hashtbl.replace resident fid ranges) t.c0_ranges;
  let entry_fid = Hashtbl.create 256 in
  Hashtbl.iter (fun fid e -> Hashtbl.replace entry_fid e fid) t.c0_entry;
  let init = Hashtbl.create 64 and tables = Hashtbl.create 64 in
  List.iter
    (fun (a, v) ->
      Hashtbl.replace init a ();
      if Hashtbl.mem t.original.Binary.code v then Hashtbl.replace tables a ())
    t.original.Binary.global_init;
  { sn_version = 0;
    sn_current = t.original;
    sn_current_entry = Hashtbl.copy t.c0_entry;
    sn_resident = resident;
    sn_residue = [];
    sn_inherited = [];
    sn_entry_fid_any = entry_fid;
    sn_init_addrs = init;
    sn_table_addrs = tables;
    sn_word_values = t.original.Binary.global_init }

let snapshot_version s = s.sn_version

(* ---- staged rollback of a committed version ---- *)

type revert_stats = {
  rv_from_version : int;
  rv_to_version : int;
  rv_vtable_entries_patched : int;
  rv_call_sites_patched : int;
  rv_copied_funcs : int;
  rv_code_bytes_reinjected : int;
  rv_gc_bytes_freed : int;
  rv_pause_seconds : float;
}

(* Un-commit: a reverse replacement taking the process from the live
   version back to the (older) version a snapshot describes. The forward
   GC unmapped the snapshot's text, so the revert re-injects it from the
   snapshot's binary view, then runs the same OSR machinery with the roles
   swapped: the doomed text is every resident range absent from the
   snapshot, desired entries come from the snapshot, and — since no frame
   map exists from a newer version back into an older one — every live
   frame in the doomed text migrates through the copy fallback. The doomed
   text is then unmapped outright: registers holding doomed values were
   migrated like any other pointer, so no landing-pad trampolines are left
   behind (the seed's one-instruction trampolines were unmapped never and
   leaked a few words per revert forever).

   This is the fleet's emergency brake after a canary regression, so unlike
   [replace_code] it contains NO fault cuts: every faultable stage of a
   rollout fails safe *before* any replica diverges, and the revert that
   undoes a partial rollout must not itself be able to fail. *)
let revert t (s : snapshot) : revert_stats =
  if s.sn_version >= t.version then
    invalid_arg
      (Fmt.str "Ocolos.revert: snapshot C%d is not older than live C%d" s.sn_version t.version);
  let from_version = t.version in
  let mem = t.proc.Proc.mem in
  (* The doomed text: resident ranges the snapshot does not have. *)
  let doomed_list =
    Hashtbl.fold
      (fun fid ranges acc ->
        let sn = Option.value ~default:[] (Hashtbl.find_opt s.sn_resident fid) in
        List.filter (fun rg -> not (List.mem rg sn)) ranges @ acc)
      t.resident []
  in
  Trace.span "replace.revert"
    ~attrs:[ ("from_version", Trace.I from_version); ("to_version", Trace.I s.sn_version) ]
  @@ fun sp ->
  let proc = t.proc in
  Proc.pause proc;
  (* 1. Re-inject the snapshot's text that forward GC removed. *)
  let reinjected = ref 0 in
  Hashtbl.iter
    (fun fid sn_ranges ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.resident fid) in
      List.iter
        (fun (rs, re) ->
          if not (List.mem (rs, re) cur) then begin
            let addr = ref rs in
            while !addr < re do
              match Hashtbl.find_opt s.sn_current.Binary.code !addr with
              | Some instr ->
                Addr_space.write_code mem !addr instr;
                reinjected := !reinjected + Instr.size instr;
                addr := !addr + Instr.size instr
              | None -> incr addr
            done;
            Addr_space.add_sym_ranges mem
              [ { Addr_space.sr_start = rs; sr_end = re; sr_fid = fid } ]
          end)
        sn_ranges)
    s.sn_resident;
  (* 2. Where every function should live after the revert. *)
  let desired_entry fid =
    match Hashtbl.find_opt s.sn_current_entry fid with
    | Some e -> e
    | None -> Hashtbl.find t.c0_entry fid
  in
  t.rounds <- t.rounds + 1;
  let ctx =
    make_osr_ctx t ~doomed:doomed_list ~fms:[] ~desired:desired_entry ~round:t.rounds
      ~cut_fn:(fun _ -> ())
  in
  (* 3. Patch v-tables back. *)
  let vt_patched = ref 0 in
  Array.iter
    (fun (vid, slot, fid) ->
      let addr = Addr_space.vtable_base mem vid + slot in
      let cur = Addr_space.read_data mem addr in
      let want = desired_entry fid in
      if cur <> want then begin
        Addr_space.write_data mem addr want;
        incr vt_patched
      end)
    t.vtable_slots;
  (* 4. Patch direct calls back: stack-live owners plus doomed targets. *)
  let live = stack_live_fids t in
  let sites_patched = ref 0 in
  Array.iter
    (fun (site, owner, callee) ->
      let cur_target =
        match Addr_space.read_code mem site with
        | Some (Instr.Call cur) -> Some cur
        | Some _ | None -> None
      in
      let target_doomed =
        match cur_target with Some cur -> in_doomed ctx cur | None -> false
      in
      if t.config.patch_all_direct_calls || Hashtbl.mem live owner || target_doomed then begin
        let want = desired_entry callee in
        match cur_target with
        | Some cur when cur <> want ->
          Addr_space.write_code mem site (Instr.Call want);
          incr sites_patched
        | Some _ | None -> ()
      end)
    t.offline_sites;
  (* 5. Migrate live frames out of the doomed text (copy fallback — there
     is no newer->older frame map), redirect code and data, restore the
     snapshot's word values, unmap. *)
  let frames_migrated = migrate_threads t ctx in
  Proc.notify_threads_migrated proc;
  redirect_code_references t ctx;
  let tables_patched, _ = patch_data_words t ctx in
  Trace.set_attr sp "table_entries_patched" (Trace.I tables_patched);
  (* Words live at snapshot time get their captured values back (captured
     after that round's own patches, so surviving residue keeps reading
     correct values); words the snapshot already carried as inherited are
     restored only if still present — resurrecting a drained round's words
     would leak them. *)
  let sn_inh_addrs = Hashtbl.create 64 in
  List.iter
    (fun (_, addrs) -> List.iter (fun a -> Hashtbl.replace sn_inh_addrs a ()) addrs)
    s.sn_inherited;
  let live_at_sn a = Hashtbl.mem s.sn_init_addrs a && not (Hashtbl.mem sn_inh_addrs a) in
  List.iter
    (fun (a, v) ->
      if live_at_sn a || Ocolos_util.Itbl.find_opt mem.Addr_space.data a <> None then
        Addr_space.write_data mem a v)
    s.sn_word_values;
  let gc_bytes = ref 0 in
  List.iter
    (fun (rs, re) ->
      let addr = ref rs in
      while !addr < re do
        match Addr_space.read_code mem !addr with
        | Some instr ->
          gc_bytes := !gc_bytes + Instr.size instr;
          Addr_space.remove_code mem !addr;
          addr := !addr + Instr.size instr
        | None -> incr addr
      done)
    doomed_list;
  Addr_space.remove_sym_ranges mem ~pred:(fun r -> in_doomed ctx r.Addr_space.sr_start);
  (* 6. Residue and inherited-word bookkeeping. Tags for words the
     snapshot considers live are dropped (the words ARE the restored
     version's live tables again); words initialized after the snapshot —
     the undone versions' tables, now read only by this round's copies —
     are inherited under this round. *)
  t.residue <- ctx.ox_residue @ t.residue;
  let inherited' =
    List.filter_map
      (fun (rnd, addrs) ->
        match List.filter (fun a -> not (live_at_sn a)) addrs with
        | [] -> None
        | addrs -> Some (rnd, addrs))
      t.inherited
  in
  let newer =
    Hashtbl.fold
      (fun a () acc ->
        if
          Hashtbl.mem s.sn_init_addrs a
          || List.exists (fun (_, addrs) -> List.mem a addrs) inherited'
        then acc
        else a :: acc)
      t.init_addrs []
  in
  t.inherited <-
    (if newer = [] then inherited' else (ctx.ox_round, newer) :: inherited');
  let reap_bytes, reaped_ranges = reap_residue t ~cut:(fun _ -> ()) in
  gc_bytes := !gc_bytes + reap_bytes;
  if t.config.verify_gc then verify_no_dangling t ~freed:(doomed_list @ reaped_ranges);
  (* 7. Restore the controller view. [entry_fid_any] is left as a superset
     (it is monotone across versions and only ever consulted by entry). *)
  t.version <- s.sn_version;
  t.current_entry <- Hashtbl.copy s.sn_current_entry;
  Hashtbl.reset t.resident;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.resident k v) s.sn_resident;
  Hashtbl.reset t.init_addrs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.init_addrs k v) s.sn_init_addrs;
  Hashtbl.reset t.table_addrs;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.table_addrs k v) s.sn_table_addrs;
  List.iter
    (fun (_, addrs) ->
      List.iter
        (fun a ->
          Hashtbl.replace t.init_addrs a ();
          Hashtbl.replace t.table_addrs a ())
        addrs)
    t.inherited;
  (* A placeholder section spanning the reverted region (and a data-top
     marker) keeps the next BOLT round allocating above the copies made
     here and above every table still read by residue. *)
  let orig_end = Bolt.sections_end t.original in
  let data_top = Ocolos_util.Itbl.fold (fun a _ acc -> max a acc) mem.Addr_space.data (-1) in
  let extra_init =
    if data_top < 0 then [] else [ (data_top, Addr_space.read_data mem data_top) ]
  in
  refresh_current t ~name_suffix:".revert"
    ~extra_sections:
      [ { Binary.sec_name = ".text.reverted";
          sec_base = orig_end;
          sec_size = mem.Addr_space.next_map_base - orig_end } ]
    ~extra_init;
  (* 8. Cost, metrics, resume. *)
  let sites = !vt_patched + !sites_patched in
  let pause_seconds = Cost.pause_seconds t.config.cost ~sites ~bytes:!reinjected in
  Trace.set_attr sp "pause_seconds" (Trace.F pause_seconds);
  Metrics.count "ocolos_reverts_total" 1;
  Metrics.count "ocolos_code_bytes_reinjected_total" !reinjected;
  Metrics.count "ocolos_gc_bytes_freed_total" !gc_bytes;
  Metrics.count "ocolos_frames_migrated_total" frames_migrated;
  Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" pause_seconds;
  Ocolos_obs.Events.log "osr.revert"
    ~fields:
      [ ("round", Trace.I ctx.ox_round);
        ("to_version", Trace.I s.sn_version);
        ("frames", Trace.I frames_migrated);
        ("copies", Trace.I ctx.ox_copy_count);
        ("resident_extra_bytes", Trace.I (resident_extra_bytes t)) ];
  Proc.resume proc;
  { rv_from_version = from_version;
    rv_to_version = s.sn_version;
    rv_vtable_entries_patched = !vt_patched;
    rv_call_sites_patched = !sites_patched;
    rv_copied_funcs = ctx.ox_copy_count;
    rv_code_bytes_reinjected = !reinjected;
    rv_gc_bytes_freed = !gc_bytes;
    rv_pause_seconds = pause_seconds }
