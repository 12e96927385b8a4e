(* perf-record analog: LBR sampling of a running process.

   Attaching installs a taken-branch hook that feeds per-thread LBR rings;
   every [sample_period] core cycles the ring is snapshotted (a PMI), which
   also charges a small overhead to the sampled thread — this is what
   produces the modest throughput dip during profiling (region 2 of the
   paper's Fig. 7). *)

type config = {
  sample_period : int; (* core cycles between PMIs, per thread *)
  pmi_overhead : float; (* cycles charged to the thread per sample *)
}

let default_config = { sample_period = 600; pmi_overhead = 60.0 }

type sample = { s_tid : int; entries : Lbr.entry array }

type session = {
  proc : Ocolos_proc.Proc.t;
  cfg : config;
  fault : Ocolos_util.Fault.t option;
  rings : Lbr.t array; (* per thread *)
  next_sample : float array;
  mutable samples : sample list;
  mutable nsamples : int;
  mutable detached : bool; (* sampling hook already torn down (fault path) *)
  mutable killed : exn option; (* stashed Fault.Killed, re-raised at [stop] *)
  saved_hook :
    (tid:int -> from_addr:int -> to_addr:int -> kind:Ocolos_proc.Proc.branch_kind -> unit)
    option;
  sp : Ocolos_obs.Trace.span option; (* open span over the sampling window *)
}

(* Tear down the sampling hook early. Target-visible effects stop here: no
   further PMIs, no further stalls — so a detach at PMI k perturbs the
   target exactly as much as any other perf fault firing at PMI k. *)
let detach session =
  if not session.detached then begin
    session.detached <- true;
    session.proc.Ocolos_proc.Proc.hooks.on_taken_branch <- session.saved_hook
  end

(* Fault points of the perf domain, each cut once per PMI in this order
   (after the PMI overhead stall, which models the interrupt itself and is
   charged whether or not the sample survives):
     perf.detach           lose the whole session from here on
     perf.sample_drop      this batch is lost (an empty/dropped read)
     perf.sample_truncate  this batch loses its oldest half
     perf.sample_corrupt   this batch's addresses are scrambled
   [Injected] is absorbed here as degradation; [Killed] detaches and is
   stashed for [stop] to re-raise — the daemon dies, the target does not. *)
let pmi_faults session =
  match session.fault with
  | None -> `Keep
  | Some f -> (
    let open Ocolos_util.Fault in
    try
      cut f "perf.detach";
      (try cut f "perf.sample_drop" with Injected _ -> raise Exit);
      let verdict = ref `Keep in
      (try cut f "perf.sample_truncate" with Injected _ -> verdict := `Truncate);
      (try cut f "perf.sample_corrupt"
       with Injected _ -> if !verdict = `Keep then verdict := `Corrupt);
      !verdict
    with
    | Injected _ ->
      detach session;
      `Drop
    | Exit -> `Drop
    | Killed _ as e ->
      detach session;
      session.killed <- Some e;
      `Drop)

(* Start sampling. The process keeps running under the caller's control;
   branch events flow into the session until [stop]. *)
let start ?(cfg = default_config) ?fault proc =
  let n = Array.length proc.Ocolos_proc.Proc.threads in
  let session =
    { proc;
      cfg;
      fault;
      rings = Array.init n (fun _ -> Lbr.create ());
      next_sample =
        Array.init n (fun i ->
            Ocolos_uarch.Core.cycles proc.Ocolos_proc.Proc.threads.(i).Ocolos_proc.Thread.core
            +. float_of_int cfg.sample_period);
      samples = [];
      nsamples = 0;
      detached = false;
      killed = None;
      saved_hook = proc.Ocolos_proc.Proc.hooks.on_taken_branch;
      sp =
        Ocolos_obs.Trace.open_span "profiler.sample_window"
          ~attrs:
            [ ("sample_period", Ocolos_obs.Trace.I cfg.sample_period);
              ("threads", Ocolos_obs.Trace.I n) ] }
  in
  (* The hook chains to any previously installed observer (last, so a
     mid-hook fault detach still forwards this event exactly once): perf is
     an observer of the branch stream, not its consumer, and outer
     instrumentation — e.g. the chaos harness's trace recorder — must see
     every branch whether or not sampling is attached. *)
  let hook ~tid ~from_addr ~to_addr ~kind =
    Lbr.record session.rings.(tid) ~from_addr ~to_addr;
    (* The branch carries no clock; the thread's core has it. Only a due
       PMI reads the cycle count itself. *)
    let core = proc.Ocolos_proc.Proc.threads.(tid).Ocolos_proc.Thread.core in
    (if not (Ocolos_uarch.Core.cycles_below core session.next_sample.(tid)) then begin
      session.next_sample.(tid) <-
        Ocolos_uarch.Core.cycles core +. float_of_int session.cfg.sample_period;
      (* The interrupt fires regardless of what happens to the batch. *)
      Ocolos_uarch.Core.stall core ~cycles:session.cfg.pmi_overhead ~category:`Backend;
      match pmi_faults session with
      | `Drop -> ()
      | (`Keep | `Truncate | `Corrupt) as verdict ->
        let entries = Lbr.snapshot session.rings.(tid) in
        let entries =
          match verdict with
          | `Keep -> entries
          | `Truncate -> Lbr.truncate_batch entries
          | `Corrupt -> Lbr.corrupt_batch entries
        in
        session.samples <- { s_tid = tid; entries } :: session.samples;
        session.nsamples <- session.nsamples + 1
    end);
    match session.saved_hook with
    | Some f -> f ~tid ~from_addr ~to_addr ~kind
    | None -> ()
  in
  proc.Ocolos_proc.Proc.hooks.on_taken_branch <- Some hook;
  Ocolos_obs.Events.emit "profile.window_open"
    [ ("sample_period", Ocolos_obs.Trace.I cfg.sample_period); ("threads", Ocolos_obs.Trace.I n) ];
  session

(* Detach and return the collected samples, oldest first. A Killed stashed
   by the sampling hook (daemon death mid-profile) re-raises here, after the
   hook is gone and the span is closed — the caller's crash harness sees it;
   the target never did. *)
let stop session =
  detach session;
  Ocolos_obs.Trace.close_span session.sp
    ~attrs:[ ("samples", Ocolos_obs.Trace.I session.nsamples) ];
  Ocolos_obs.Events.emit "profile.window_close"
    [ ("samples", Ocolos_obs.Trace.I session.nsamples);
      ("detached_by_fault", Ocolos_obs.Trace.B (session.killed <> None)) ];
  match session.killed with
  | Some e -> raise e
  | None -> List.rev session.samples

let sample_count session = session.nsamples

(* Total LBR records across samples (the raw profile volume; drives the
   perf2bolt conversion-cost model). *)
let record_count samples =
  List.fold_left (fun acc s -> acc + Array.length s.entries) 0 samples
