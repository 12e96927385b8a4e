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
   thread's PC directly into C_{i+1} through that map, and builds a short
   compensation stub when a PC lands mid-block between exact map points.
   The old text — including C0's [bolt.org.text], even for never-returning
   entry functions — is then unmapped immediately, range by range, so
   after convergence exactly one code version is resident. Only a function
   that something still reaches and no map covers keeps its old text
   mapped where it is, as transient residue that a reachability-proven GC
   reaps as frames drain. *)

open Ocolos_isa
open Ocolos_binary
open Ocolos_proc
open Ocolos_profiler
open Ocolos_bolt
module Itbl = Ocolos_util.Itbl
module Codemap = Ocolos_util.Codemap
module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics
module Events = Ocolos_obs.Events

type config = {
  bolt : Bolt.config;
  perf : Perf.config;
  cost : Cost.t;
  patch_all_direct_calls : bool; (* ablation: paper found this useless *)
  fault : Ocolos_util.Fault.t option; (* injection registry consulted by replace_code *)
}

let default_config =
  { bolt = Bolt.default_config;
    perf = Perf.default_config;
    cost = Cost.default;
    patch_all_direct_calls = false;
    fault = None }

type replacement_stats = {
  version : int; (* the new code version number (C_version) *)
  vtable_entries_patched : int;
  call_sites_patched : int;
  stack_live_funcs : int;
  frames_migrated : int; (* live frames / PCs rewritten into C_{i+1} *)
  osr_stubs : int; (* compensation stubs generated for mid-block PCs *)
  copied_funcs : int; (* functions whose old text was kept in place (no usable frame map) *)
  funcs_optimized : int;
  code_bytes_injected : int;
  gc_bytes_freed : int;
  pause_seconds : float;
}

module Imap = Osr.Imap
module Iset = Osr.Iset

type t = {
  osr : Osr.t; (* process tables, round counter and the live view *)
  original : Binary.t;
  config : config;
  c0 : Osr.view; (* C0's view, built from the original image by [attach] *)
  mutable session : Perf.session option;
  mutable cfgs : (Binary.t * (int -> Ocolos_bolt.Cfg.reconstructed)) option;
      (* the campaign's CFG memo over the live view's binary: filled by
         [run_bolt], reused then dropped by [validate_result], dropped too
         when the view is rebuilt *)
}

let view t = t.osr.Osr.view

(* ---- controller-state snapshots ----

   [replace_code] assigns the controller a new view, and mutates the
   address space and thread state. A snapshot is the view it saw plus the
   values of every tracked data word, which {!revert} needs because the
   forward data scan rewrites stored function pointers and jump-table
   words in place. A view is never written, so one snapshot can back any
   number of reverts. ([Osr.t.rounds] lives outside the view: it is a
   monotone residue tag and must never move backwards.) *)
type snapshot = {
  view : Osr.view;
  word_values : (int * int) list; (* (address, value) of every tracked word *)
}

let code_ranges (s : Binary.func_sym) =
  List.map (fun r -> (r.Binary.r_start, r.Binary.r_start + r.Binary.r_size)) s.Binary.fs_ranges

(* Add [words]' addresses to the tracked set and, when the word holds an
   address of [code], to the table-word set. *)
let track (init, tables) code words =
  List.fold_left
    (fun (init, tables) (a, v) ->
      (Iset.add a init, if Codemap.mem code v then Iset.add a tables else tables))
    (init, tables) words

let word_set inherited =
  List.fold_left
    (fun set (_, addrs) -> List.fold_left (fun set a -> Iset.add a set) set addrs)
    Iset.empty inherited

(* C0's view, from the original image. *)
let c0_view (original : Binary.t) =
  let syms = original.Binary.symbols in
  let init_addrs, table_addrs =
    track (Iset.empty, Iset.empty) original.Binary.code original.Binary.global_init
  in
  { Osr.version = 0;
    current = original;
    resident = Array.map code_ranges syms;
    entry_fid =
      Array.fold_left
        (fun m (s : Binary.func_sym) -> Imap.add s.Binary.fs_entry s.Binary.fs_fid m)
        Imap.empty syms;
    init_addrs;
    table_addrs;
    residue = [];
    inherited = [] }

(* ---- attach ---- *)

(* Function-pointer resolution: an entry of any version ever live denotes
   its function's entry in the view. It runs on every [FpCreate], so it
   allocates nothing. *)
let resolve_fp (v : Osr.view) addr =
  match Imap.find addr v.Osr.entry_fid with
  | fid -> Osr.entry v fid
  | exception Not_found -> addr

let attach ?(config = default_config) (proc : Proc.t) =
  let original = proc.Proc.binary in
  let c0 = c0_view original in
  (* Offline analysis: parse every direct call site from the binary, with
     its owning function and callee, to shorten the stop-the-world phase
     (Section IV). *)
  let index = Binary.build_addr_index original in
  let callee_of addr = Imap.find_opt addr c0.Osr.entry_fid in
  let offline_sites =
    Binary.direct_call_sites original
    |> List.filter_map (fun (site, target) ->
           match (Binary.index_lookup index site, callee_of target) with
           | Some owner, Some callee -> Some (site, owner, callee)
           | _, _ -> None)
    |> Array.of_list
  in
  let vtable_slots =
    Array.to_list original.Binary.vtables
    |> List.concat_map (fun vt ->
           Array.to_list vt.Binary.vt_entries
           |> List.mapi (fun slot entry ->
                  match callee_of entry with
                  | Some fid -> [ (vt.Binary.vt_id, slot, fid) ]
                  | None -> [])
           |> List.concat)
    |> Array.of_list
  in
  let t =
    { osr =
        { Osr.proc;
          vtable_slots;
          offline_sites;
          patch_all_direct_calls = config.patch_all_direct_calls;
          rounds = 0;
          view = c0 };
      original;
      config;
      c0;
      session = None;
      cfgs = None }
  in
  (* The wrapFuncPtrCreation hook: a created function pointer always
     denotes the current version of its function, so no pointer is ever
     pinned to a retired version's text. Stored pointer values created
     before a replacement are migrated by the replacement's data scan. *)
  proc.Proc.hooks.translate_fp <- Some (fun addr -> resolve_fp t.osr.Osr.view addr);
  t

(* ---- profiling ---- *)

let start_profiling t =
  if t.session <> None then invalid_arg "Ocolos.start_profiling: already profiling";
  t.session <- Some (Perf.start ~cfg:t.config.perf ?fault:t.config.fault t.osr.proc)

(* Returns the aggregated profile and the modeled perf2bolt time. *)
let stop_profiling t =
  match t.session with
  | None -> invalid_arg "Ocolos.stop_profiling: not profiling"
  | Some session ->
    t.session <- None;
    let samples = Perf.stop session in
    let profile =
      Perf2bolt.convert ~binary:(view t).Osr.current ?fault:t.config.fault samples
    in
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
  (* Calls to non-optimized functions resolve to their entries in the live
     view, BOLT's default: with true OSR there is no pinned C0 to fall back
     to. *)
  let current = (view t).Osr.current in
  (* BOLT places the optimized text above the binary's sections, but the
     live process maps more than the binary describes (thread-local blocks,
     the heap, residue). A zero-size hull marker at the top of everything
     mapped keeps the emission from landing on live data. All code lies
     below the mmap cursor — loading, injection, stubs and reverts write
     below it, and a rollback restores both — so the cursor bounds the
     code without a walk over it. *)
  let binary =
    let mem = t.osr.Osr.proc.Proc.mem in
    let data_top = Itbl.fold (fun a _ acc -> max a acc) mem.Addr_space.data (-1) in
    let hull = max (data_top + 1) mem.Addr_space.next_map_base in
    if hull <= Bolt.sections_end current then current
    else
      { current with
        Binary.sections =
          current.Binary.sections
          @ [ { Binary.sec_name = "mem.hull"; sec_base = hull; sec_size = 0 } ] }
  in
  (* [binary] differs from [current] only in its sections, which CFG
     reconstruction never reads: the memo over [current] serves both BOLT
     and the validator. *)
  let cfg_of = Ocolos_bolt.Cfg.memoize current in
  t.cfgs <- Some (current, cfg_of);
  let result = Bolt.run ~config ~binary ?fault:t.config.fault ~cfg_of ~profile () in
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
            Events.emit "fault.fired" [ ("point", Trace.S p); ("hit", Trace.I hit) ];
            let result, mutations = Miscompile.apply ~point:p ~salt:hit result in
            Events.emit "bolt.miscompile.applied"
              [ ("point", Trace.S p); ("mutations", Trace.I mutations) ];
            result)
        result Miscompile.points
  in
  let seconds = Cost.bolt_seconds t.config.cost ~work_instrs:result.Bolt.work_instrs in
  (result, seconds)

(* Tier-1 miscompile containment: validate a BOLT result against the
   binary it was derived from, under the same external-entry resolution
   [run_bolt] used. {!Step.build} runs it before any commit;
   the verdict is logged as a [validate.verdict] event (with one
   [validate.reject] event per rejection) and [ocolos_validate_*] metrics. *)
let validate_result t (result : Bolt.result) =
  Ocolos_obs.Trace.span "ocolos.validate" @@ fun sp ->
  let current = (view t).Osr.current in
  let cfg_of =
    match t.cfgs with Some (b, cfg_of) when b == current -> Some cfg_of | _ -> None
  in
  t.cfgs <- None;
  let report = Validate.run ~binary:current ?cfg_of result in
  Ocolos_obs.Trace.set_attr sp "funcs" (Ocolos_obs.Trace.I report.Validate.rp_funcs);
  Ocolos_obs.Trace.set_attr sp "rejections"
    (Ocolos_obs.Trace.I (List.length report.Validate.rp_rejections));
  List.iter
    (fun (rj : Validate.rejection) ->
      Events.emit "validate.reject"
        [ ("fid", Trace.I rj.Validate.rj_fid);
          ("check", Trace.S rj.Validate.rj_check);
          ("reason", Trace.S rj.Validate.rj_reason) ])
    report.Validate.rp_rejections;
  Events.emit "validate.verdict"
    [ ("ok", Trace.B (Validate.ok report));
      ("funcs", Trace.I report.Validate.rp_funcs);
      ("blocks", Trace.I report.Validate.rp_blocks);
      ("rejections", Trace.I (List.length report.Validate.rp_rejections)) ];
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
      Events.emit "fault.fired" [ ("point", Trace.S p); ("hit", Trace.I hit) ];
      raise e
    | Ocolos_util.Fault.Killed (p, hit) as e ->
      Events.emit "fault.killed" [ ("point", Trace.S p); ("hit", Trace.I hit) ];
      raise e)


let stack_live_fids t = Osr.stack_live_fids t.osr

let residue_bytes t = Osr.residue_bytes t.osr
let resident_extra_bytes t = Osr.resident_extra_bytes t.osr

(* Bytes of the original [.text] (C0 / [bolt.org.text]) still mapped. True
   OSR drives this to 0 once every function has been re-emitted. *)
let c0_text_resident_bytes t =
  match Binary.section_named t.original ".text" with
  | None -> 0
  | Some s ->
    let mem = t.osr.proc.Proc.mem in
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

(* On-demand residue GC between replacements (e.g. the daemon's idle tick):
   as frames drain past their migrated program points, stubs and kept text
   become unreachable without another replacement to notice. Pauses the
   process around the reachability proof if it isn't already paused.
   Returns bytes freed. *)
let gc_residue t =
  let proc = t.osr.proc in
  let was_paused = proc.Proc.paused in
  if not was_paused then Proc.pause proc;
  let bytes = Osr.reap t.osr in
  if not was_paused then Proc.resume proc;
  if bytes > 0 then Metrics.count "ocolos_gc_bytes_freed_total" bytes;
  bytes

exception Dangling_pointer = Osr.Dangling_pointer

let verify_no_dangling t ~freed = Osr.verify_no_dangling t.osr ~freed

(* A marker at the highest initialized data word: as [extra_init] it keeps
   the next BOLT round's tables above every word mapped. *)
let data_top_marker mem =
  match Itbl.fold (fun a _ acc -> max a acc) mem.Addr_space.data (-1) with
  | top when top < 0 -> []
  | top -> [ (top, Addr_space.read_data mem top) ]

(* The live binary view for [entry] and [resident] (arrays by fid) plus
   [residue]: code is snapshotted from the process, each function's ranges
   are its resident version plus any residue it owns, and the extra init
   keeps the next BOLT round's tables above every word mapped ([run_bolt]'s
   hull already keeps its code above everything mapped). Drops the CFG
   memo, which decodes the view being replaced. *)
let current_of t ~entry ~resident ~residue ~name_suffix ~extra_init =
  t.cfgs <- None;
  let mem = t.osr.Osr.proc.Proc.mem in
  let code = Codemap.copy mem.Addr_space.code in
  let to_ranges = List.map (fun (s, e) -> { Binary.r_start = s; r_size = e - s }) in
  let extra = Array.make (Array.length resident) [] in
  List.iter
    (fun (r : Osr.residue) -> extra.(r.rs_fid) <- to_ranges r.rs_ranges @ extra.(r.rs_fid))
    residue;
  let symbols =
    Array.map
      (fun (s : Binary.func_sym) ->
        let fid = s.Binary.fs_fid in
        { s with
          Binary.fs_entry = entry.(fid);
          fs_ranges = to_ranges resident.(fid) @ extra.(fid) })
      t.original.Binary.symbols
  in
  let sections =
    List.map
      (fun (s : Binary.section) ->
        if s.Binary.sec_name = ".text" then { s with Binary.sec_name = "bolt.org.text" } else s)
      t.original.Binary.sections
  in
  { t.original with
    Binary.name = t.original.Binary.name ^ name_suffix;
    sections;
    code;
    symbols;
    global_init = t.original.Binary.global_init @ extra_init;
    entry = entry.(Imap.find t.original.Binary.entry t.c0.Osr.entry_fid) }

(* The stop-the-world phase. Pauses the target, injects C_{i+1}, runs the
   shared OSR transition ({!Osr.migrate} then {!Osr.retire}) onto the new
   entries with BOLT's frame maps, commits the new view, resumes. *)
let replace_code t (result : Bolt.result) : replacement_stats =
  let live = t.osr.Osr.view in
  Trace.span "replace.stw" ~attrs:[ ("incoming_version", Trace.I (live.Osr.version + 1)) ]
  @@ fun stw_sp ->
  let proc = t.osr.Osr.proc in
  let mem = proc.Proc.mem in
  Proc.pause proc;
  cut t "proc.pause_timeout";
  cut t "pause";
  let new_text = result.Bolt.new_text in
  (* 1. Inject the optimized code and its jump-table data. *)
  Trace.span "replace.inject" (fun sp ->
      cut t "mem.exhausted";
      ignore
        (Addr_space.write_run mem
           ~each:(fun () -> cut t "inject_code")
           new_text.Binary.code Addr_space.all_code
          : int);
      List.iter
        (fun (a, v) ->
          cut t "inject_data";
          Addr_space.write_data mem a v)
        new_text.Binary.global_init;
      cut t "sym_index";
      Addr_space.add_sym_ranges mem (Binary.sym_ranges new_text);
      Trace.set_attr sp "instrs" (Trace.I (Codemap.length new_text.Binary.code)));
  let bytes_injected = Binary.text_bytes new_text in
  (* Keep the mmap cursor above the injected section: stubs are reserved
     from it, and BOLT's 1 MiB guard band keeps the next round's emission
     above them in turn. *)
  let new_end = Bolt.sections_end new_text in
  if mem.Addr_space.next_map_base < new_end then
    mem.Addr_space.next_map_base <- (new_end + 0xFFFF) land lnot 0xFFFF;
  (* 2. Entry maps. *)
  let entry = Array.init (Array.length live.Osr.resident) (Osr.entry live) in
  Array.iter
    (fun (s : Binary.func_sym) -> entry.(s.Binary.fs_fid) <- s.Binary.fs_entry)
    new_text.Binary.symbols;
  (* Register the new entries with the wrapFuncPtrCreation hook's entry
     index: pointers created once the new view is live resolve to it. *)
  let entry_fid =
    Trace.span "replace.fp_pin" (fun _ ->
        Array.fold_left
          (fun m (s : Binary.func_sym) ->
            cut t "fp_pin";
            Imap.add s.Binary.fs_entry s.Binary.fs_fid m)
          live.Osr.entry_fid new_text.Binary.symbols)
  in
  (* 3. Migrate onto the new entries. The doomed text is every resident
     range of every re-emitted function — in each function's first
     optimization round that is its C0 range, so [bolt.org.text] retires
     piecewise as coverage grows. *)
  let doomed =
    Array.fold_right
      (fun (s : Binary.func_sym) acc -> live.Osr.resident.(s.Binary.fs_fid) @ acc)
      new_text.Binary.symbols []
  in
  let round =
    Osr.migrate t.osr ~doomed ~desired:(Array.get entry) ~fms:result.Bolt.frame_maps ~cut:(cut t)
  in
  (* 4. The retiring version's jump-table words this round's residue still
     reads drain with it; then unmap, reap and audit. *)
  (if round.Osr.inherited_words <> [] then
     let v = t.osr.Osr.view in
     t.osr.Osr.view <-
       { v with Osr.inherited = (round.Osr.number, round.Osr.inherited_words) :: v.Osr.inherited });
  let gc_bytes = Osr.retire t.osr round in
  (* 5. Commit the next view. *)
  cut t "commit";
  let version = live.Osr.version + 1 in
  Trace.span "replace.commit" (fun _ ->
      let v = t.osr.Osr.view in
      let resident = Array.copy v.Osr.resident in
      Array.iter
        (fun (s : Binary.func_sym) -> resident.(s.Binary.fs_fid) <- code_ranges s)
        new_text.Binary.symbols;
      let init_addrs, table_addrs =
        track (v.Osr.init_addrs, v.Osr.table_addrs) new_text.Binary.code
          new_text.Binary.global_init
      in
      t.osr.Osr.view <-
        { v with
          Osr.version;
          current =
            current_of t ~entry ~resident ~residue:v.Osr.residue
              ~name_suffix:(Fmt.str ".v%d" version) ~extra_init:new_text.Binary.global_init;
          resident;
          entry_fid;
          init_addrs;
          table_addrs });
  (* 6. Stop-the-world cost, then resume. *)
  let sites = round.Osr.vtable_patched + round.Osr.sites_patched in
  let pause_seconds = Cost.pause_seconds t.config.cost ~sites ~bytes:bytes_injected in
  Trace.set_attr stw_sp "version" (Trace.I version);
  Trace.set_attr stw_sp "pause_seconds" (Trace.F pause_seconds);
  Metrics.count "ocolos_vtable_entries_patched_total" round.Osr.vtable_patched;
  Metrics.count "ocolos_call_sites_patched_total" round.Osr.sites_patched;
  Metrics.count "ocolos_code_bytes_injected_total" bytes_injected;
  Metrics.count "ocolos_gc_bytes_freed_total" gc_bytes;
  Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" pause_seconds;
  Events.emit "osr.migrate"
    [ ("round", Trace.I round.Osr.number);
      ("version", Trace.I version);
      ("frames", Trace.I round.Osr.frames);
      ("stubs", Trace.I round.Osr.stubs);
      ("copies", Trace.I round.Osr.kept);
      ("resident_extra_bytes", Trace.I (resident_extra_bytes t)) ];
  Proc.resume proc;
  { version;
    vtable_entries_patched = round.Osr.vtable_patched;
    call_sites_patched = round.Osr.sites_patched;
    stack_live_funcs = round.Osr.stack_live;
    frames_migrated = round.Osr.frames;
    osr_stubs = round.Osr.stubs;
    copied_funcs = round.Osr.kept;
    funcs_optimized = result.Bolt.funcs_reordered;
    code_bytes_injected = bytes_injected;
    gc_bytes_freed = gc_bytes;
    pause_seconds }

let version t = (view t).Osr.version
let current_binary t = (view t).Osr.current
let proc t = t.osr.Osr.proc
let config t = t.config

(* The function-pointer resolver frozen at call time: it closes over the
   view live now, so a shadow clone keeps resolving [FpCreate] against the
   version mix that was live when the clone was taken, whatever later
   replacements or reverts assign on the real controller (whose own hook
   reads the live view). *)
let frozen_translate_fp t = resolve_fp (view t)

(* ---- crash recovery ---- *)

(* Re-attach a fresh controller to a process whose previous OCOLOS daemon
   died. Everything a committed replacement did survives in the target —
   injected text, patched v-tables and call sites, the extended symbol
   index — while an aborted transaction left no trace at all ({!Txn}
   rolled back before the old daemon died). The daemon-side state is
   reconstructed from the target as ground truth:

   - code the symbol index places at or above the original image's end
     belongs to injected versions;
   - a function's live entry is what the target names: its v-table
     slots, direct calls and function-pointer creations in other
     functions, and live frames' saved callee entries. Every round moves
     all of these to the live version, while text kept in place by an
     earlier round may lie below it, so only a function nothing names (a
     thread root) falls back to the lowest injected address it owns
     (emission lays the hot part first), and then to its C0 entry;
   - a function's resident set is its injected ranges plus whatever C0
     ranges are still mapped. Residue is indistinguishable from live text
     here and is conservatively treated as resident; the next replacement
     round dooms it like any other old text, and keeps it in place while
     something still reaches it (no frame map covers it);
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
    let c0 = t.c0 in
    let nfids = Array.length c0.Osr.resident in
    let lowest = Array.make nfids max_int and inj = Array.make nfids [] in
    let entry_fid =
      List.fold_right
        (fun (r : Addr_space.sym_range) m ->
          let fid = r.Addr_space.sr_fid in
          lowest.(fid) <- min lowest.(fid) r.Addr_space.sr_start;
          inj.(fid) <- (r.Addr_space.sr_start, r.Addr_space.sr_end) :: inj.(fid);
          Imap.add r.Addr_space.sr_start fid m)
        injected c0.Osr.entry_fid
    in
    let entry =
      Array.init nfids (fun fid ->
          if lowest.(fid) < max_int then lowest.(fid) else Osr.entry c0 fid)
    in
    (* Names override the lowest address; later kinds override earlier
       ones, so a frame pushed by a recursive call inside kept text never
       outvotes a v-table slot or a caller. *)
    let name addr =
      match Addr_space.fid_of_addr mem addr with
      | Some fid -> entry.(fid) <- addr
      | None -> ()
    in
    Array.iter
      (fun (thread : Thread.t) ->
        if Thread.is_running thread then
          List.iter
            (fun (f : Thread.frame) -> name f.Thread.callee_entry)
            (Thread.live_frames thread))
      proc.Proc.threads;
    (* Cross-function references, named in address order (the code map's
       own order). *)
    Codemap.iter
      (fun addr instr ->
        match instr with
        | Instr.Call target | Instr.FpCreate (_, target) ->
          if
            not
              (Option.equal Int.equal (Addr_space.fid_of_addr mem addr)
                 (Addr_space.fid_of_addr mem target))
          then name target
        | _ -> ())
      mem.Addr_space.code;
    Array.iter
      (fun (vid, slot, _) ->
        name (Addr_space.read_data mem (Addr_space.vtable_base mem vid + slot)))
      t.osr.Osr.vtable_slots;
    let resident =
      Array.mapi
        (fun fid c0ranges ->
          inj.(fid) @ List.filter (fun (s, _) -> Addr_space.read_code mem s <> None) c0ranges)
        c0.Osr.resident
    in
    let lo = List.fold_left (fun acc r -> min acc r.Addr_space.sr_start) max_int injected in
    let hi = List.fold_left (fun acc r -> max acc r.Addr_space.sr_end) 0 injected in
    t.osr.Osr.view <-
      { c0 with
        Osr.version = 1;
        (* A marker at the highest initialized data word keeps the next
           BOLT round's tables above everything present. *)
        current =
          current_of t ~entry ~resident ~residue:[] ~name_suffix:".recovered"
            ~extra_init:(data_top_marker mem);
        resident;
        entry_fid;
        init_addrs = Itbl.fold (fun a _ set -> Iset.add a set) mem.Addr_space.data Iset.empty;
        table_addrs = Iset.empty };
    Trace.set_attr sp "live_text" (Trace.S (Fmt.str "0x%x-0x%x" lo hi)));
  Trace.set_attr sp "version" (Trace.I (version t));
  Metrics.count "ocolos_reattach_total" 1;
  t

let snapshot t =
  let v = view t and mem = t.osr.Osr.proc.Proc.mem in
  { view = v;
    word_values =
      List.map (fun a -> (a, Addr_space.read_data mem a)) (Iset.elements v.Osr.init_addrs) }

let restore t v = t.osr.Osr.view <- v

(* A snapshot describing C0 for a controller whose in-memory history is
   gone (fleet restart after a reattach): C0's bytes live in the original
   binary image, so reverting to it is always possible even though its
   text may long since have been unmapped. *)
let c0_snapshot t = { view = t.c0; word_values = t.original.Binary.global_init }

let snapshot_version s = s.view.Osr.version

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
   snapshot's binary view, then runs the same OSR transition as
   [replace_code] with the roles swapped: the doomed text is every resident
   range absent from the snapshot, desired entries come from the snapshot,
   and — since no frame map exists from a newer version back into an older
   one — a function with a live frame in the doomed text keeps that text
   in place until the frame drains. The rest of the doomed text is
   unmapped outright: registers holding doomed entries were migrated like
   any other pointer, so no landing-pad trampolines are left behind.

   This is the fleet's emergency brake after a canary regression, so unlike
   [replace_code] it contains NO fault cuts: every faultable stage of a
   rollout fails safe *before* any replica diverges, and the revert that
   undoes a partial rollout must not itself be able to fail. *)
let revert t (s : snapshot) : revert_stats =
  let live = view t and sv = s.view in
  let from_version = live.Osr.version and to_version = sv.Osr.version in
  if to_version >= from_version then
    invalid_arg
      (Fmt.str "Ocolos.revert: snapshot C%d is not older than live C%d" to_version from_version);
  let osr = t.osr in
  let proc = osr.Osr.proc in
  let mem = proc.Proc.mem in
  (* The doomed text: resident ranges the snapshot does not have. *)
  let doomed =
    Array.to_list live.Osr.resident
    |> List.mapi (fun fid ranges ->
           List.filter (fun rg -> not (List.mem rg sv.Osr.resident.(fid))) ranges)
    |> List.concat
  in
  Trace.span "replace.revert"
    ~attrs:[ ("from_version", Trace.I from_version); ("to_version", Trace.I to_version) ]
  @@ fun sp ->
  Proc.pause proc;
  (* 1. Re-inject the snapshot's text that forward GC removed or a forward
     round kept, in ascending fid order. Kept text is the snapshot's own
     and live again, so it leaves the residue (the reaper must never free
     it) and keeps its symbol range; the other ranges enter the symbol
     index in one rebuild after the loop. *)
  let reinjected = ref 0 and residue_ranges = ref [] and sym_ranges = ref [] in
  Array.iteri
    (fun fid sn_ranges ->
      List.iter
        (fun (rs, re) ->
          if not (List.mem (rs, re) live.Osr.resident.(fid)) then begin
            reinjected :=
              !reinjected
              + Addr_space.write_run mem ~each:ignore sv.Osr.current.Binary.code (rs, re);
            if
              List.exists
                (fun (r : Osr.residue) -> List.mem (rs, re) r.rs_ranges)
                live.Osr.residue
            then residue_ranges := (rs, re) :: !residue_ranges
            else
              sym_ranges := { Addr_space.sr_start = rs; sr_end = re; sr_fid = fid } :: !sym_ranges
          end)
        sn_ranges)
    sv.Osr.resident;
  Addr_space.add_sym_ranges mem !sym_ranges;
  let residue =
    List.filter_map
      (fun (r : Osr.residue) ->
        match List.filter (fun rg -> not (List.mem rg !residue_ranges)) r.rs_ranges with
        | [] -> None
        | rs_ranges -> Some { r with rs_ranges })
      live.Osr.residue
  in
  osr.Osr.view <- { live with Osr.residue };
  (* 2. Migrate onto the snapshot's entries, with no frame maps and no
     fault cuts. *)
  let round = Osr.migrate osr ~doomed ~desired:(Osr.entry sv) ~fms:[] ~cut:ignore in
  (* 3. Words live at snapshot time get their captured values back
     (captured after that round's own patches, so surviving residue keeps
     reading correct values); words the snapshot already carried as
     inherited are restored only if still present — resurrecting a drained
     round's words would leak them. *)
  let sn_inh = word_set sv.Osr.inherited in
  let live_at_sn a = Iset.mem a sv.Osr.init_addrs && not (Iset.mem a sn_inh) in
  List.iter
    (fun (a, v) ->
      if live_at_sn a || Itbl.mem mem.Addr_space.data a then Addr_space.write_data mem a v)
    s.word_values;
  (* Tags for words the snapshot considers live are dropped (the words ARE
     the restored version's live tables again); words initialized after
     the snapshot — the undone versions' tables, now read only by the text
     this round kept — are inherited under this round. *)
  let v = osr.Osr.view in
  let inherited' =
    List.filter_map
      (fun (rnd, addrs) ->
        match List.filter (fun a -> not (live_at_sn a)) addrs with
        | [] -> None
        | addrs -> Some (rnd, addrs))
      v.Osr.inherited
  in
  let inh' = word_set inherited' in
  let newer =
    Iset.fold
      (fun a acc -> if Iset.mem a sv.Osr.init_addrs || Iset.mem a inh' then acc else a :: acc)
      v.Osr.init_addrs []
  in
  osr.Osr.view <-
    { v with
      Osr.inherited = (if newer = [] then inherited' else (round.Osr.number, newer) :: inherited')
    };
  (* 4. Unmap the reverted text, reap, audit. *)
  let gc_bytes = Osr.retire osr round in
  (* 5. The snapshot's view is live again, with the residue and inherited
     words that survived the reap, whose words stay tracked, and the live
     [entry_fid] (a superset: it is monotone across versions and only ever
     consulted by entry). A data-top marker keeps the next BOLT round's
     tables above every table still read by residue. *)
  let v = osr.Osr.view in
  let inh = word_set v.Osr.inherited in
  osr.Osr.view <-
    { sv with
      Osr.current =
        current_of t
          ~entry:(Array.init (Array.length sv.Osr.resident) (Osr.entry sv))
          ~resident:sv.Osr.resident ~residue:v.Osr.residue ~name_suffix:".revert"
          ~extra_init:(data_top_marker mem);
      entry_fid = v.Osr.entry_fid;
      init_addrs = Iset.union sv.Osr.init_addrs inh;
      table_addrs = Iset.union sv.Osr.table_addrs inh;
      residue = v.Osr.residue;
      inherited = v.Osr.inherited };
  (* 6. Cost, metrics, resume. *)
  let sites = round.Osr.vtable_patched + round.Osr.sites_patched in
  let pause_seconds = Cost.pause_seconds t.config.cost ~sites ~bytes:!reinjected in
  Trace.set_attr sp "pause_seconds" (Trace.F pause_seconds);
  Metrics.count "ocolos_code_bytes_reinjected_total" !reinjected;
  Metrics.count "ocolos_gc_bytes_freed_total" gc_bytes;
  Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" pause_seconds;
  Events.emit "osr.revert"
    [ ("round", Trace.I round.Osr.number);
      ("to_version", Trace.I to_version);
      ("frames", Trace.I round.Osr.frames);
      ("copies", Trace.I round.Osr.kept);
      ("resident_extra_bytes", Trace.I (resident_extra_bytes t)) ];
  Proc.resume proc;
  { rv_from_version = from_version;
    rv_to_version = to_version;
    rv_vtable_entries_patched = round.Osr.vtable_patched;
    rv_call_sites_patched = round.Osr.sites_patched;
    rv_copied_funcs = round.Osr.kept;
    rv_code_bytes_reinjected = !reinjected;
    rv_gc_bytes_freed = gc_bytes;
    rv_pause_seconds = pause_seconds }
