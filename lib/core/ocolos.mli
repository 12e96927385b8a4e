(** OCOLOS: online code layout optimization of a running process (the
    paper's primary contribution).

    Pipeline (paper Fig. 4a): profile the target with LBR sampling, run BOLT
    in the background, then pause the target, inject the optimized code C1
    at fresh addresses, update v-table entries and direct calls inside
    stack-live functions so C1 runs in the common case, and resume — fixed
    costs only. Continuous mode (C_i -> C_{i+1}) performs {e true on-stack
    replacement}: BOLT emits a per-function frame map
    ({!Ocolos_bolt.Frame_map}) alongside each optimized function, and the
    stop-the-world phase rewrites every live frame's return address, saved
    callee entry and paused thread's PC directly into C_{i+1} through it —
    via a generated compensation stub when a PC lands mid-block — then
    unmaps the retired text immediately. No code is ever relocated: a
    function that something still reaches and no map covers keeps its
    retired text mapped where it is. Nothing is pinned: [bolt.org.text]
    retires as coverage grows (even for never-returning entry functions),
    and after convergence exactly one code version is resident; transient
    residue (stubs and kept text) and the jump-table words it still reads
    are reaped by a reachability-proven GC as frames drain, and the post-GC
    reachability scan runs after every round that retires text. A commit and a
    {!revert} run the same two {!Osr} steps — migrate, then retire — and
    differ only in the doomed text, the desired entries, the frame maps and
    the fault cut.

    This module holds the mechanisms. The policy that decides whether a
    BOLT result may reach the process is {!Step}: {!run_bolt}, then the
    Tier-1 {!validate_result}, then {!replace_code} inside a {!Txn}
    transaction gated by the Tier-2 {!Shadow} check. Every driver commits
    through {!Step}. *)

type config = {
  bolt : Ocolos_bolt.Bolt.config;
  perf : Ocolos_profiler.Perf.config;
  cost : Cost.t;
  patch_all_direct_calls : bool;
      (** ablation: the paper found patching non-stack-live calls does not
          help and only slows replacement *)
  fault : Ocolos_util.Fault.t option;
      (** fault-injection registry consulted at every {!fault_catalog} cut
          across the pipeline — profiling ([perf.*]), aggregation
          ([perf2bolt.*]), BOLT ([bolt.*]) and the stop-the-world points of
          {!injection_points}; [None] (the default) compiles the cuts down
          to counter-free no-ops *)
}

val default_config : config

type replacement_stats = {
  version : int;
  vtable_entries_patched : int;
  call_sites_patched : int;
  stack_live_funcs : int;
  frames_migrated : int;
      (** live frames / PCs rewritten into the new version (OSR) *)
  osr_stubs : int;  (** compensation stubs generated for mid-block PCs *)
  copied_funcs : int;
      (** functions with no usable frame map whose retired text stayed
          mapped in place (kept) *)
  funcs_optimized : int;
  code_bytes_injected : int;
  gc_bytes_freed : int;
  pause_seconds : float;  (** modeled stop-the-world duration *)
}

type t

(** Attach to a running process (the ptrace analog). Performs the offline
    call-site analysis and installs the function-pointer creation hook
    (pointers always denote the current version of their function). *)
val attach : ?config:config -> Ocolos_proc.Proc.t -> t

(** Crash recovery: attach to a process whose previous OCOLOS daemon died,
    reconstructing the controller state from the target as ground truth —
    injected code above the original image's end, live entries (what the
    v-table slots, other functions' direct calls and function-pointer
    creations and the live frames' saved callee entries name; the lowest
    injected address only for a function nothing names), each function's
    resident ranges (injected plus surviving C0), and the function-pointer
    entry index. Residue is conservatively treated as resident text; the
    next replacement round retires it like any other old version. An aborted
    transaction left no trace, so reattaching after a mid-transaction kill
    is identical to a plain {!attach}. *)
val reattach : ?config:config -> Ocolos_proc.Proc.t -> t

val version : t -> int

(** The live binary view (the current code version plus residue): symbol
    resolution for profiling and the input to the next BOLT round. *)
val current_binary : t -> Ocolos_binary.Binary.t

(** Begin LBR sampling of the target. The caller keeps driving the process;
    sampling happens as it runs. *)
val start_profiling : t -> unit

(** Stop sampling; returns the aggregated profile and the modeled perf2bolt
    conversion time in seconds. *)
val stop_profiling : t -> Ocolos_profiler.Profile.t * float

(** Supervisor-driven degradation tier for a BOLT round: [`Full] is the
    configured pipeline; [`Func_reorder_only] disables block reordering,
    hot/cold splitting and peephole, keeping only the function order — the
    cheapest layout still worth committing, used after a full campaign has
    already failed. *)
type tier = [ `Full | `Func_reorder_only ]

(** Run BOLT on the current code version. Returns the result and the
    modeled optimization time in seconds. [exclude] adds quarantined fids
    to the config's exclusion list for this round. The CFGs BOLT decodes
    are kept (a {!Ocolos_bolt.Cfg.memoize} memo) for {!validate_result}. *)
val run_bolt :
  ?tier:tier -> ?exclude:int list -> t -> Ocolos_profiler.Profile.t ->
  Ocolos_bolt.Bolt.result * float

(** Tier-1 miscompile containment: run {!Ocolos_bolt.Validate} over a BOLT
    result against the current code version, under the same external-entry
    resolution {!run_bolt} used, checking against the CFGs the last
    {!run_bolt} on this code version decoded (then releasing them) rather
    than decoding the binary again. {!Step.build} runs it before any commit;
    logs a [validate.verdict] event (plus one [validate.reject] event per
    rejection) and [ocolos_validate_*] metrics. *)
val validate_result : t -> Ocolos_bolt.Bolt.result -> Ocolos_bolt.Validate.report

(** The stop-the-world phase: pause, inject C_{i+1}, then {!Osr.migrate}
    (patch v-tables and call sites, migrate live frames into the new text
    through BOLT's frame maps, redirect code and data) and {!Osr.retire}
    (unmap every retired range, reap residue, post-GC scan), commit the new
    view, resume. Unjournaled and ungated: only
    {!Txn.replace_code} calls it (drivers go through {!Step.commit}); the
    unit tests of the mechanism itself are the one other caller. *)
val replace_code : t -> Ocolos_bolt.Bolt.result -> replacement_stats

(** Raised by the post-GC safety scan when a reachable code pointer
    references freed code. *)
exception Dangling_pointer of string

(** Post-GC reachability audit: v-table slots, thread PCs and frames,
    patched call sites, every code pointer the block engine holds (cached
    blocks, per-thread resume memos) and every static target in the
    surviving code map are checked against [freed]. With [freed = []] the
    scan runs in {e global} mode — every scanned pointer must be mapped —
    which is the CI smoke test's whole-process audit. *)
val verify_no_dangling : t -> freed:(int * int) list -> unit

(** Stack-live function set (by return addresses and PCs), as fids. *)
val stack_live_fids : t -> (int, unit) Hashtbl.t

val proc : t -> Ocolos_proc.Proc.t
val config : t -> config

(** The wrapFuncPtrCreation resolver frozen at call time: resolves entries
    against the view live now, whatever later replacements or reverts
    assign. The shadow checker ({!Shadow}) installs this on its process
    clones. *)
val frozen_translate_fp : t -> int -> int

(** Bytes of residue (stubs and kept text) currently mapped. *)
val residue_bytes : t -> int

(** Transient footprint beyond the single resident code version: residue
    (stubs and kept text) plus inherited jump-table words (8 bytes each). Reaches 0 after
    convergence once every migrated frame has drained. *)
val resident_extra_bytes : t -> int

(** Bytes of the original [.text] (C0, aka [bolt.org.text]) still mapped.
    True OSR drives this to 0 once every function has been re-emitted. *)
val c0_text_resident_bytes : t -> int

(** On-demand GC of residue (stubs and kept text) between replacements (the daemon's
    idle tick): reaps residue no thread PC, frame or register can reach,
    and inherited jump-table words whose round has fully drained. Pauses
    the process around the reachability proof if needed. Returns bytes
    freed. *)
val gc_residue : t -> int

(** Every named fault-injection point inside [replace_code], in the order
    the stop-the-world phase reaches them. Points inside mutation loops are
    hit once per iteration, so an [Nth] schedule lands mid-mutation. The
    OSR points ([osr_frame] per paused thread, [osr_map] per doomed-pointer
    resolution — the map-lookup path, [osr_stub] per compensation-stub
    build) and the [gc_*]/[verify] points are reachable only in rounds that
    retire text. Includes [proc.pause_timeout] (a thread missing the
    safe-point deadline) and [mem.exhausted] (no address space for the
    incoming text). *)
val injection_points : string list

(** The pipeline-wide fault catalog, in pipeline order: [perf.*] sampling
    faults, [perf2bolt.*] aggregation faults, [bolt.*] per-pass faults,
    the [bolt.miscompile.*] silent-corruption points
    ({!Ocolos_bolt.Miscompile.points} — cut after every pass has finished,
    so only the validator / shadow checker stand between the corruption
    and the process), then {!injection_points}. The CLI validates
    [--fault] specs against this list and the chaos harness sweeps it. *)
val fault_catalog : string list

(** The controller's live view: the code version, its binary view,
    resident ranges, entry index and tracked words, as one immutable
    {!Osr.view}. {!replace_code}, {!revert}, {!gc_residue} and
    {!reattach} each assign a new one and never write an old one. *)
val view : t -> Osr.view

(** Make [view] the live view again. {!Txn} saves the view before a
    replacement and restores it on rollback, alongside the address-space
    journal that puts data and code back. *)
val restore : t -> Osr.view -> unit

(** A snapshot for {!revert}: the live {!view} plus the values of every
    tracked data word (the forward data scan
    rewrites stored function pointers and jump-table words in place, and
    {!revert} must put them back). Views are never written, so one
    snapshot can back any number of reverts. *)
type snapshot

val snapshot : t -> snapshot

(** The version a snapshot was taken at. *)
val snapshot_version : snapshot -> int

(** The snapshot describing C0: the C0 view {!attach} built and the
    original image's data words. C0's bytes live in the original binary
    image, so a controller with no in-memory history (e.g. freshly
    {!reattach}ed after a daemon death) can always {!revert} to it — even
    though its text may long since have been unmapped. *)
val c0_snapshot : t -> snapshot

type revert_stats = {
  rv_from_version : int;
  rv_to_version : int;
  rv_vtable_entries_patched : int;
  rv_call_sites_patched : int;
  rv_copied_funcs : int;  (** functions whose reverted text was kept in place *)
  rv_code_bytes_reinjected : int;  (** the restored version's text *)
  rv_gc_bytes_freed : int;  (** the reverted version's text *)
  rv_pause_seconds : float;
}

(** Un-commit: a reverse replacement taking the process from the live
    version back to the (strictly older) version [snapshot] describes. It
    re-injects the snapshot's text (its forward GC removed it, or a forward
    round kept it in place — such text leaves the residue, since it is live
    again), then runs the same {!Osr.migrate} as {!replace_code} onto the
    snapshot's entries with no frame maps (no map exists from a newer
    version back to an older one, so a function with a live frame in the
    newer text keeps that text in place), restores patched data words, and
    runs the same {!Osr.retire}: the rest of the reverted text is unmapped
    outright — no landing-pad trampolines are left behind; register
    migration makes them unnecessary — kept text is reaped by the same
    reachability proof once its frames drain, and the post-GC scan runs.
    The snapshot's view then becomes live again, with the surviving
    residue, its inherited words and the live entry index. The
    staged-rollback path of a fleet canary that regressed; deliberately
    contains {e no} fault cuts — the emergency brake must not itself be
    able to fail. Raises [Invalid_argument] if the snapshot is not older
    than the live version. *)
val revert : t -> snapshot -> revert_stats
