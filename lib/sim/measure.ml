(* Measurement driver shared by the benchmark harness and the examples.

   Provides the paper's experimental configurations: steady-state throughput
   of a binary under an input; profile collection runs; the four Fig. 5
   comparators (original, BOLT oracle, PGO oracle, BOLT average-case); and
   full online OCOLOS runs. *)

open Ocolos_workloads
open Ocolos_proc
open Ocolos_uarch
module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics

type sample = {
  tps : float; (* transactions per simulated second *)
  counters : Counters.t; (* interval counters over the measurement window *)
  topdown : Counters.topdown;
}

let default_warmup = 0.6
let default_measure = 2.0

let interval_sample ~seconds counters =
  { tps = float_of_int counters.Counters.transactions /. seconds;
    counters;
    topdown = Counters.topdown counters }

(* Steady-state throughput of [binary] running [input]. *)
let steady ?binary ?nthreads ?(seed = 1234) ?(warmup = default_warmup)
    ?(measure = default_measure) (w : Workload.t) ~input =
  Trace.span "measure.steady" ~attrs:[ ("workload", Trace.S w.Workload.name) ] @@ fun sp ->
  let proc = Workload.launch ?binary ?nthreads ~seed w ~input in
  Proc.run ~cycle_limit:(Clock.seconds_to_cycles warmup) proc;
  Trace.clock warmup;
  let before = Proc.total_counters proc in
  Proc.run ~cycle_limit:(Clock.seconds_to_cycles (warmup +. measure)) proc;
  Trace.clock (warmup +. measure);
  let counters = Counters.diff (Proc.total_counters proc) before in
  let s = interval_sample ~seconds:measure counters in
  Trace.set_attr sp "tps" (Trace.F s.tps);
  Counters.observe_metrics ~prefix:"ocolos_steady" counters;
  s

(* Collect an LBR profile of [binary] (default: original) running [input]
   for [seconds], after a short warmup. This is the offline-profiling path
   used by the BOLT / PGO comparators. *)
let collect_profile ?binary ?nthreads ?(seed = 4321) ?(warmup = 0.3) ?(seconds = 2.0)
    ?perf_cfg (w : Workload.t) ~input =
  let binary = match binary with Some b -> b | None -> w.Workload.binary in
  let proc = Workload.launch ~binary ?nthreads ~seed w ~input in
  Proc.run ~cycle_limit:(Clock.seconds_to_cycles warmup) proc;
  let session = Ocolos_profiler.Perf.start ?cfg:perf_cfg proc in
  Proc.run ~cycle_limit:(Clock.seconds_to_cycles (warmup +. seconds)) proc;
  let samples = Ocolos_profiler.Perf.stop session in
  Ocolos_profiler.Perf2bolt.convert ~binary samples

(* Offline BOLT with a given profile (the BOLT-oracle / average-case
   configurations, depending on which profile is passed). *)
let bolt_binary ?config (w : Workload.t) profile =
  Ocolos_bolt.Bolt.run ?config ~binary:w.Workload.binary ~profile ()

(* Clang-PGO analog with the same profile. *)
let pgo_binary ?config (w : Workload.t) profile =
  Ocolos_pgo.Pgo.run ?config ~program:w.Workload.program ~binary:w.Workload.binary ~profile
    ~name:(w.Workload.name ^ ".pgo") ()

type ocolos_run = {
  post : sample; (* steady state after code replacement *)
  stats : Ocolos_core.Ocolos.replacement_stats;
  perf2bolt_seconds : float;
  bolt_seconds : float;
  profile : Ocolos_profiler.Profile.t;
  rollbacks : int; (* replacement attempts rolled back by injected faults *)
  attempts : int; (* total replacement attempts (rollbacks + the commit) *)
  resident_extra_bytes : int; (* stub/copy residue + inherited table words at commit *)
  breaker : Ocolos_core.Guard.breaker_state; (* supervision state after the run *)
  quarantined : int list; (* fids excluded from reordering by the guard *)
}

exception Replacement_failed of string

(* A full online OCOLOS cycle on a freshly launched process: warm up,
   profile the running process for [profile_s], BOLT in the background
   (charging contention stalls to the target), replace code (charging the
   stop-the-world pause), then measure steady state. Replacement runs
   transactionally: a rolled-back attempt charges its aborted pause to the
   target and is retried, up to [max_attempts] in total. *)
let ocolos_steady ?config ?guard ?nthreads ?(seed = 1234) ?(warmup = default_warmup)
    ?(profile_s = 2.0) ?(measure = default_measure) ?(max_attempts = 4) (w : Workload.t)
    ~input =
  let guard = match guard with Some g -> g | None -> Ocolos_core.Guard.create () in
  Trace.span "ocolos.run"
    ~attrs:[ ("workload", Trace.S w.Workload.name); ("seed", Trace.I seed) ]
  @@ fun run_sp ->
  let proc = Workload.launch ?nthreads ~seed w ~input in
  let oc = Ocolos_core.Ocolos.attach ?config proc in
  let cost =
    (match config with Some c -> c | None -> Ocolos_core.Ocolos.default_config).Ocolos_core.Ocolos.cost
  in
  let horizon = ref warmup in
  (* Keep the trace clock anchored to simulated seconds: every phase
     boundary below advances it, so span timestamps read as Sim.Clock
     time (plus the per-event microsecond tick). *)
  let advance s =
    horizon := !horizon +. s;
    Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc;
    Trace.clock !horizon
  in
  Trace.span "ocolos.warmup" (fun _ ->
      Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc;
      Trace.clock !horizon);
  Ocolos_core.Ocolos.start_profiling oc;
  advance profile_s;
  let profile, perf2bolt_seconds = Ocolos_core.Ocolos.stop_profiling oc in
  let result, bolt_seconds =
    Ocolos_core.Ocolos.run_bolt ~exclude:(Ocolos_core.Guard.quarantined guard) oc profile
  in
  Ocolos_core.Guard.record_func_failures guard result.Ocolos_bolt.Bolt.failed;
  (* Background perf2bolt + BOLT compete with the target for cycles. Only a
     bounded slice of that interval is actually simulated (it does not
     affect the post-replacement steady state we are measuring); the
     contention stall is charged for the simulated slice. Timeline.run
     simulates the full region when the region itself is the subject. *)
  let background = perf2bolt_seconds +. bolt_seconds in
  let bg_sim = Float.min background 1.5 in
  Trace.span "ocolos.background"
    ~attrs:
      [ ("perf2bolt_seconds", Trace.F perf2bolt_seconds);
        ("bolt_seconds", Trace.F bolt_seconds) ]
    (fun _ ->
      advance bg_sim;
      Proc.stall_all proc
        ~cycles:
          (Clock.seconds_to_cycles (bg_sim *. cost.Ocolos_core.Cost.background_contention))
        ~category:`Backend);
  (* Transactional replacement with bounded retries: each rolled-back
     attempt still pauses the target (the aborted mutations plus their
     undo), modeled as a pause over the journal entries undone. *)
  let rollbacks = ref 0 in
  let rec attempt n =
    match Ocolos_core.Txn.replace_code oc result with
    | Ocolos_core.Txn.Committed stats -> stats
    (* No [verify] gate is passed above, so the transaction cannot report a
       divergence; measurement runs pay the shadow cost separately. *)
    | Ocolos_core.Txn.Diverged dv ->
      raise (Replacement_failed (Fmt.str "shadow divergence: %s" dv.Ocolos_core.Txn.dv_reason))
    | Ocolos_core.Txn.Rolled_back rb ->
      incr rollbacks;
      let rb_pause =
        Ocolos_core.Cost.pause_seconds cost ~sites:rb.Ocolos_core.Txn.rb_undone ~bytes:0
      in
      Metrics.sample ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds" rb_pause;
      Proc.stall_all proc ~cycles:(Clock.seconds_to_cycles rb_pause) ~category:`Backend;
      if n >= max_attempts then begin
        (* The breaker hears about the failed campaign before we raise, so a
           continuous driver sharing [guard] backs off instead of hammering. *)
        Ocolos_core.Guard.campaign_failed guard ~now_s:!horizon;
        Ocolos_core.Guard.export guard;
        raise
          (Replacement_failed
             (Fmt.str "all %d attempts rolled back (last at %s, hit %d)" max_attempts
                rb.Ocolos_core.Txn.rb_point rb.Ocolos_core.Txn.rb_hit))
      end
      else attempt (n + 1)
  in
  let stats = attempt 1 in
  (* The drain-window RSS peak: residue and inherited table words are
     largest right after the commit, before any frame drains. *)
  let resident_extra_bytes = Ocolos_core.Ocolos.resident_extra_bytes oc in
  Metrics.record "ocolos_resident_extra_bytes" (float_of_int resident_extra_bytes);
  Ocolos_core.Guard.campaign_succeeded guard;
  Ocolos_core.Guard.export guard;
  Proc.stall_all proc
    ~cycles:(Clock.seconds_to_cycles stats.Ocolos_core.Ocolos.pause_seconds)
    ~category:`Backend;
  (* Re-anchor the clock after the injected stalls so the measurement
     window is a full [measure] seconds of post-replacement execution. *)
  horizon := Float.max !horizon (Clock.cycles_to_seconds (Proc.max_cycles proc));
  Trace.clock !horizon;
  let before = Proc.total_counters proc in
  let counters =
    Trace.span "ocolos.measure" @@ fun sp ->
    advance measure;
    let counters = Counters.diff (Proc.total_counters proc) before in
    Trace.set_attr sp "tps"
      (Trace.F (float_of_int counters.Counters.transactions /. measure));
    counters
  in
  let post = interval_sample ~seconds:measure counters in
  (* Per-round IPC: one observation per completed OCOLOS round, so a
     continuous-reoptimization driver accumulates a distribution. *)
  Metrics.sample ~buckets:Metrics.ipc_buckets "ocolos_round_ipc" (Counters.ipc counters);
  Counters.observe_metrics ~prefix:"ocolos_post" counters;
  Trace.set_attr run_sp "attempts" (Trace.I (!rollbacks + 1));
  Trace.set_attr run_sp "rollbacks" (Trace.I !rollbacks);
  Trace.set_attr run_sp "post_tps" (Trace.F post.tps);
  { post;
    stats;
    perf2bolt_seconds;
    bolt_seconds;
    profile;
    rollbacks = !rollbacks;
    attempts = !rollbacks + 1;
    resident_extra_bytes;
    breaker = Ocolos_core.Guard.breaker_state guard;
    quarantined = Ocolos_core.Guard.quarantined guard }
