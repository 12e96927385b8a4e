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

type t = {
  osr : Osr.t; (* pointer tables, resident ranges and residue bookkeeping *)
  original : Binary.t;
  config : config;
  c0_entry : (int, int) Hashtbl.t;
  c0_ranges : (int, (int * int) list) Hashtbl.t;
  mutable version : int;
  mutable current : Binary.t; (* live symbol/code view, for perf2bolt & BOLT *)
  mutable current_entry : (int, int) Hashtbl.t; (* fid -> live entry *)
  mutable session : Perf.session option;
  mutable cfgs : (Binary.t * (int -> Ocolos_bolt.Cfg.reconstructed)) option;
      (* the campaign's CFG memo over [current]: filled by [run_bolt],
         reused then dropped by [validate_result], dropped too when
         [current] is rebuilt *)
}

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
  sn_residue : Osr.residue list;
  sn_inherited : (int * int list) list;
  sn_entry_fid_any : (int, int) Hashtbl.t;
  sn_init_addrs : (int, unit) Hashtbl.t;
  sn_table_addrs : (int, unit) Hashtbl.t;
  sn_word_values : (int * int) list; (* tracked words' values at capture *)
}

(* C0's controller tables, built from the original image: [attach] starts
   the controller on them, and [c0_snapshot] builds a fresh set to revert
   to. Their initial sizes are the live tables' sizes, which set iteration
   order and so the emitted artifacts. *)
let c0_view original ~c0_entry ~c0_ranges =
  let resident = Hashtbl.create 256 in
  Hashtbl.iter (fun fid ranges -> Hashtbl.replace resident fid ranges) c0_ranges;
  let entry_fid = Hashtbl.create 256 in
  Hashtbl.iter (fun fid e -> Hashtbl.replace entry_fid e fid) c0_entry;
  let init = Hashtbl.create 256 and tables = Hashtbl.create 64 in
  List.iter
    (fun (a, v) ->
      Hashtbl.replace init a ();
      if Itbl.mem original.Binary.code v then Hashtbl.replace tables a ())
    original.Binary.global_init;
  { sn_version = 0;
    sn_current = original;
    sn_current_entry = Hashtbl.copy c0_entry;
    sn_resident = resident;
    sn_residue = [];
    sn_inherited = [];
    sn_entry_fid_any = entry_fid;
    sn_init_addrs = init;
    sn_table_addrs = tables;
    sn_word_values = original.Binary.global_init }

(* ---- attach ---- *)

(* Function-pointer resolution: an entry of any version ever live denotes
   its function's entry in [current]. *)
let resolve_fp entry_fid current addr =
  match Hashtbl.find_opt entry_fid addr with
  | Some fid -> ( match Hashtbl.find_opt current fid with Some e -> e | None -> addr)
  | None -> addr

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
  let c0 = c0_view original ~c0_entry ~c0_ranges in
  let entry_fid = c0.sn_entry_fid_any in
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
  let t =
    { osr =
        { Osr.proc;
          vtable_slots;
          offline_sites;
          patch_all_direct_calls = config.patch_all_direct_calls;
          entry_fid_any = entry_fid;
          resident = c0.sn_resident;
          init_addrs = c0.sn_init_addrs;
          table_addrs = c0.sn_table_addrs;
          residue = [];
          inherited = [];
          rounds = 0 };
      original;
      config;
      c0_entry;
      c0_ranges;
      version = 0;
      current = original;
      current_entry = c0.sn_current_entry;
      session = None;
      cfgs = None }
  in
  (* The wrapFuncPtrCreation hook: a created function pointer always
     denotes the current version of its function, so no pointer is ever
     pinned to a retired version's text. Stored pointer values created
     before a replacement are migrated by the replacement's data scan. *)
  proc.Proc.hooks.translate_fp <-
    Some (fun addr -> resolve_fp t.osr.entry_fid_any t.current_entry addr);
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
     mapped keeps the emission from landing on live data. All code lies
     below the mmap cursor — loading, injection, stubs and reverts write
     below it, and a rollback restores both — so the cursor bounds the
     code without a walk over it. *)
  let binary =
    let mem = t.osr.proc.Proc.mem in
    let data_top = Itbl.fold (fun a _ acc -> max a acc) mem.Addr_space.data (-1) in
    let hull = max (data_top + 1) mem.Addr_space.next_map_base in
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

(* Rebuild the live binary view: code is snapshotted from the process,
   each function's ranges are its resident version plus any residue it
   owns, entries come from [current_entry] (update it first), and the
   extra init keeps the next BOLT round's tables above every word mapped
   ([run_bolt]'s hull already keeps its code above everything mapped). *)
let refresh_current t ~name_suffix ~extra_init =
  t.cfgs <- None (* it decodes the view being replaced *);
  let mem = t.osr.proc.Proc.mem in
  let code = Itbl.copy mem.Addr_space.code in
  let code_order = Itbl.sorted_keys code in
  let residue_by_fid = Hashtbl.create 16 in
  List.iter
    (fun (r : Osr.residue) ->
      let ranges =
        List.map (fun (s, e) -> { Binary.r_start = s; r_size = e - s }) r.rs_ranges
      in
      Hashtbl.replace residue_by_fid r.rs_fid
        (ranges @ Option.value ~default:[] (Hashtbl.find_opt residue_by_fid r.rs_fid)))
    t.osr.residue;
  let symbols =
    Array.map
      (fun (s : Binary.func_sym) ->
        let fid = s.Binary.fs_fid in
        let res =
          List.map
            (fun (rs, re) -> { Binary.r_start = rs; r_size = re - rs })
            (Option.value ~default:[] (Hashtbl.find_opt t.osr.resident fid))
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
  in
  let entry =
    match Hashtbl.find_opt t.osr.entry_fid_any t.original.Binary.entry with
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

(* The stop-the-world phase. Pauses the target, injects C_{i+1}, runs the
   shared OSR transition ({!Osr.migrate} then {!Osr.retire}) onto the new
   entries with BOLT's frame maps, commits the new view, resumes. *)
let replace_code t (result : Bolt.result) : replacement_stats =
  Trace.span "replace.stw" ~attrs:[ ("incoming_version", Trace.I (t.version + 1)) ]
  @@ fun stw_sp ->
  let proc = t.osr.proc in
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
          Addr_space.write_code mem addr (Itbl.find new_text.Binary.code addr))
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
  (* Keep the mmap cursor above the injected section: stubs are reserved
     from it, and BOLT's 1 MiB guard band keeps the next round's emission
     above them in turn. *)
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
          Hashtbl.replace t.osr.entry_fid_any entry fid)
        new_entries);
  (* 3. Migrate onto the new entries. The doomed text is every resident
     range of every re-emitted function — in each function's first
     optimization round that is its C0 range, so [bolt.org.text] retires
     piecewise as coverage grows. *)
  let doomed =
    Hashtbl.fold
      (fun fid _ acc ->
        match Hashtbl.find_opt t.osr.resident fid with Some ranges -> ranges @ acc | None -> acc)
      new_entries []
  in
  let round =
    Osr.migrate t.osr ~doomed ~desired:desired_entry ~fms:result.Bolt.frame_maps ~cut:(cut t)
  in
  (* 4. The retiring version's jump-table words this round's residue still
     reads drain with it; then unmap, reap and audit. *)
  if round.Osr.inherited_words <> [] then
    t.osr.inherited <- (round.Osr.number, round.Osr.inherited_words) :: t.osr.inherited;
  let gc_bytes = Osr.retire t.osr round in
  (* 5. Update version state and the live binary view. *)
  cut t "commit";
  Trace.span "replace.commit" (fun _ ->
      t.version <- t.version + 1;
      Array.iter
        (fun (s : Binary.func_sym) ->
          Hashtbl.replace t.osr.resident s.Binary.fs_fid
            (List.map
               (fun (r : Binary.range) -> (r.Binary.r_start, r.Binary.r_start + r.Binary.r_size))
               s.Binary.fs_ranges))
        new_text.Binary.symbols;
      Hashtbl.iter (fun fid e -> Hashtbl.replace t.current_entry fid e) new_entries;
      List.iter
        (fun (a, v) ->
          Hashtbl.replace t.osr.init_addrs a ();
          if Itbl.mem new_text.Binary.code v then Hashtbl.replace t.osr.table_addrs a ())
        new_text.Binary.global_init;
      refresh_current t
        ~name_suffix:(Fmt.str ".v%d" t.version)
        ~extra_init:new_text.Binary.global_init);
  (* 6. Stop-the-world cost, then resume. *)
  let sites = round.Osr.vtable_patched + round.Osr.sites_patched in
  let pause_seconds = Cost.pause_seconds t.config.cost ~sites ~bytes:bytes_injected in
  Trace.set_attr stw_sp "version" (Trace.I t.version);
  Trace.set_attr stw_sp "pause_seconds" (Trace.F pause_seconds);
  Metrics.count "ocolos_vtable_entries_patched_total" round.Osr.vtable_patched;
  Metrics.count "ocolos_call_sites_patched_total" round.Osr.sites_patched;
  Metrics.count "ocolos_code_bytes_injected_total" bytes_injected;
  Metrics.count "ocolos_gc_bytes_freed_total" gc_bytes;
  Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" pause_seconds;
  Events.emit "osr.migrate"
    [ ("round", Trace.I round.Osr.number);
      ("version", Trace.I t.version);
      ("frames", Trace.I round.Osr.frames);
      ("stubs", Trace.I round.Osr.stubs);
      ("copies", Trace.I round.Osr.kept);
      ("resident_extra_bytes", Trace.I (resident_extra_bytes t)) ];
  Proc.resume proc;
  { version = t.version;
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

let version t = t.version
let current_binary t = t.current
let proc t = t.osr.proc
let config t = t.config

(* The function-pointer resolver frozen at call time: independent copies of
   the entry tables, so a shadow clone keeps resolving [FpCreate] against
   the version mix that was live when the clone was taken, immune to later
   replacements or reverts on the real controller (whose own hook reads the
   mutable tables). *)
let frozen_translate_fp t =
  resolve_fp (Hashtbl.copy t.osr.entry_fid_any) (Hashtbl.copy t.current_entry)

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
    let entry = Hashtbl.create 64 in
    List.iter
      (fun (r : Addr_space.sym_range) ->
        let fid = r.Addr_space.sr_fid in
        (match Hashtbl.find_opt entry fid with
        | Some e when e <= r.Addr_space.sr_start -> ()
        | Some _ | None -> Hashtbl.replace entry fid r.Addr_space.sr_start);
        Hashtbl.replace t.osr.entry_fid_any r.Addr_space.sr_start fid)
      injected;
    (* Names override the lowest address; later kinds override earlier
       ones, so a frame pushed by a recursive call inside kept text never
       outvotes a v-table slot or a caller. *)
    let name addr =
      match Addr_space.fid_of_addr mem addr with
      | Some fid -> Hashtbl.replace entry fid addr
      | None -> ()
    in
    Array.iter
      (fun (thread : Thread.t) ->
        if Thread.is_running thread then
          List.iter
            (fun (f : Thread.frame) -> name f.Thread.callee_entry)
            (Thread.live_frames thread))
      proc.Proc.threads;
    (* Cross-function references, named in address order. *)
    Itbl.fold
      (fun addr instr acc ->
        match instr with
        | Instr.Call target | Instr.FpCreate (_, target) -> (addr, target) :: acc
        | _ -> acc)
      mem.Addr_space.code []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (addr, target) ->
           if
             not
               (Option.equal Int.equal (Addr_space.fid_of_addr mem addr)
                  (Addr_space.fid_of_addr mem target))
           then name target);
    Array.iter
      (fun (vid, slot, _) ->
        name (Addr_space.read_data mem (Addr_space.vtable_base mem vid + slot)))
      t.osr.vtable_slots;
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
        Hashtbl.replace t.osr.resident fid (inj @ c0))
      t.c0_ranges;
    Hashtbl.reset t.osr.init_addrs;
    Hashtbl.reset t.osr.table_addrs;
    Itbl.fold
      (fun a _ () -> Hashtbl.replace t.osr.init_addrs a ())
      mem.Addr_space.data ();
    t.version <- 1;
    let lo = List.fold_left (fun acc r -> min acc r.Addr_space.sr_start) max_int injected in
    let hi = List.fold_left (fun acc r -> max acc r.Addr_space.sr_end) 0 injected in
    (* A marker at the highest initialized data word keeps the next BOLT
       round's tables above everything present. *)
    refresh_current t ~name_suffix:".recovered" ~extra_init:(data_top_marker mem);
    Trace.set_attr sp "live_text" (Trace.S (Fmt.str "0x%x-0x%x" lo hi)));
  Trace.set_attr sp "version" (Trace.I t.version);
  Metrics.count "ocolos_reattach_total" 1;
  t

let snapshot t =
  let osr = t.osr in
  { sn_version = t.version;
    sn_current = t.current;
    sn_current_entry = Hashtbl.copy t.current_entry;
    sn_resident = Hashtbl.copy osr.resident;
    sn_residue = osr.residue;
    sn_inherited = osr.inherited;
    sn_entry_fid_any = Hashtbl.copy osr.entry_fid_any;
    sn_init_addrs = Hashtbl.copy osr.init_addrs;
    sn_table_addrs = Hashtbl.copy osr.table_addrs;
    sn_word_values =
      Hashtbl.fold
        (fun a () acc -> (a, Addr_space.read_data osr.proc.Proc.mem a) :: acc)
        osr.init_addrs [] }

let copy_into dst src =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

(* The version, entry, resident-range and tracked-word tables a snapshot
   pins: what both [restore] and [revert] put back. *)
let install_tables t s =
  t.version <- s.sn_version;
  t.current_entry <- Hashtbl.copy s.sn_current_entry;
  copy_into t.osr.resident s.sn_resident;
  copy_into t.osr.init_addrs s.sn_init_addrs;
  copy_into t.osr.table_addrs s.sn_table_addrs

let restore t s =
  install_tables t s;
  t.current <- s.sn_current;
  t.osr.residue <- s.sn_residue;
  t.osr.inherited <- s.sn_inherited;
  copy_into t.osr.entry_fid_any s.sn_entry_fid_any

(* A snapshot describing C0 for a controller whose in-memory history is
   gone (fleet restart after a reattach): C0's bytes live in the original
   binary image, so reverting to it is always possible even though its
   text may long since have been unmapped. *)
let c0_snapshot t = c0_view t.original ~c0_entry:t.c0_entry ~c0_ranges:t.c0_ranges

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
  if s.sn_version >= t.version then
    invalid_arg
      (Fmt.str "Ocolos.revert: snapshot C%d is not older than live C%d" s.sn_version t.version);
  let from_version = t.version in
  let osr = t.osr in
  let proc = osr.proc in
  let mem = proc.Proc.mem in
  (* The doomed text: resident ranges the snapshot does not have. *)
  let doomed =
    Hashtbl.fold
      (fun fid ranges acc ->
        let sn = Option.value ~default:[] (Hashtbl.find_opt s.sn_resident fid) in
        List.filter (fun rg -> not (List.mem rg sn)) ranges @ acc)
      osr.resident []
  in
  Trace.span "replace.revert"
    ~attrs:[ ("from_version", Trace.I from_version); ("to_version", Trace.I s.sn_version) ]
  @@ fun sp ->
  Proc.pause proc;
  (* 1. Re-inject the snapshot's text that forward GC removed or a forward
     round kept. Kept text is the snapshot's own and live again, so it
     leaves the residue (the reaper must never free it) and keeps its
     symbol range. *)
  let reinjected = ref 0 and residue_ranges = ref [] in
  Hashtbl.iter
    (fun fid sn_ranges ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt osr.resident fid) in
      List.iter
        (fun (rs, re) ->
          if not (List.mem (rs, re) cur) then begin
            let addr = ref rs in
            while !addr < re do
              match Itbl.find_opt s.sn_current.Binary.code !addr with
              | Some instr ->
                Addr_space.write_code mem !addr instr;
                reinjected := !reinjected + Instr.size instr;
                addr := !addr + Instr.size instr
              | None -> incr addr
            done;
            if List.exists (fun (r : Osr.residue) -> List.mem (rs, re) r.rs_ranges) osr.residue
            then residue_ranges := (rs, re) :: !residue_ranges
            else
              Addr_space.add_sym_ranges mem
                [ { Addr_space.sr_start = rs; sr_end = re; sr_fid = fid } ]
          end)
        sn_ranges)
    s.sn_resident;
  osr.residue <-
    List.filter_map
      (fun (r : Osr.residue) ->
        match List.filter (fun rg -> not (List.mem rg !residue_ranges)) r.rs_ranges with
        | [] -> None
        | rs_ranges -> Some { r with rs_ranges })
      osr.residue;
  (* 2. Migrate onto the snapshot's entries, with no frame maps and no
     fault cuts. *)
  let desired_entry fid =
    match Hashtbl.find_opt s.sn_current_entry fid with
    | Some e -> e
    | None -> Hashtbl.find t.c0_entry fid
  in
  let round = Osr.migrate osr ~doomed ~desired:desired_entry ~fms:[] ~cut:ignore in
  (* 3. Words live at snapshot time get their captured values back
     (captured after that round's own patches, so surviving residue keeps
     reading correct values); words the snapshot already carried as
     inherited are restored only if still present — resurrecting a drained
     round's words would leak them. *)
  let sn_inh_addrs = Hashtbl.create 64 in
  List.iter
    (fun (_, addrs) -> List.iter (fun a -> Hashtbl.replace sn_inh_addrs a ()) addrs)
    s.sn_inherited;
  let live_at_sn a = Hashtbl.mem s.sn_init_addrs a && not (Hashtbl.mem sn_inh_addrs a) in
  List.iter
    (fun (a, v) ->
      if live_at_sn a || Itbl.mem mem.Addr_space.data a then
        Addr_space.write_data mem a v)
    s.sn_word_values;
  (* Tags for words the snapshot considers live are dropped (the words ARE
     the restored version's live tables again); words initialized after
     the snapshot — the undone versions' tables, now read only by the text
     this round kept — are inherited under this round. *)
  let inherited' =
    List.filter_map
      (fun (rnd, addrs) ->
        match List.filter (fun a -> not (live_at_sn a)) addrs with
        | [] -> None
        | addrs -> Some (rnd, addrs))
      osr.inherited
  in
  let newer =
    Hashtbl.fold
      (fun a () acc ->
        if
          Hashtbl.mem s.sn_init_addrs a
          || List.exists (fun (_, addrs) -> List.mem a addrs) inherited'
        then acc
        else a :: acc)
      osr.init_addrs []
  in
  osr.inherited <- (if newer = [] then inherited' else (round.Osr.number, newer) :: inherited');
  (* 4. Unmap the reverted text, reap, audit. *)
  let gc_bytes = Osr.retire osr round in
  (* 5. Restore the controller view. [entry_fid_any] is left as a superset
     (it is monotone across versions and only ever consulted by entry). *)
  install_tables t s;
  List.iter
    (fun (_, addrs) ->
      List.iter
        (fun a ->
          Hashtbl.replace osr.init_addrs a ();
          Hashtbl.replace osr.table_addrs a ())
        addrs)
    osr.inherited;
  (* A data-top marker keeps the next BOLT round's tables above every
     table still read by residue. *)
  refresh_current t ~name_suffix:".revert" ~extra_init:(data_top_marker mem);
  (* 6. Cost, metrics, resume. *)
  let sites = round.Osr.vtable_patched + round.Osr.sites_patched in
  let pause_seconds = Cost.pause_seconds t.config.cost ~sites ~bytes:!reinjected in
  Trace.set_attr sp "pause_seconds" (Trace.F pause_seconds);
  Metrics.count "ocolos_code_bytes_reinjected_total" !reinjected;
  Metrics.count "ocolos_gc_bytes_freed_total" gc_bytes;
  Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" pause_seconds;
  Events.emit "osr.revert"
    [ ("round", Trace.I round.Osr.number);
      ("to_version", Trace.I s.sn_version);
      ("frames", Trace.I round.Osr.frames);
      ("copies", Trace.I round.Osr.kept);
      ("resident_extra_bytes", Trace.I (resident_extra_bytes t)) ];
  Proc.resume proc;
  { rv_from_version = from_version;
    rv_to_version = s.sn_version;
    rv_vtable_entries_patched = round.Osr.vtable_patched;
    rv_call_sites_patched = round.Osr.sites_patched;
    rv_copied_funcs = round.Osr.kept;
    rv_code_bytes_reinjected = !reinjected;
    rv_gc_bytes_freed = gc_bytes;
    rv_pause_seconds = pause_seconds }
