(* Tests for the continuous-optimization controller and the perf-report
   analog. A single-process campaign is a one-replica fleet; its gate
   policy is [Daemon.config]. *)

open Ocolos_workloads
module Daemon = Ocolos_core.Daemon
module Fleet = Ocolos_core.Fleet
module Clock = Ocolos_sim.Clock
module Metrics = Ocolos_obs.Metrics
module Events = Ocolos_obs.Events

let drive proc horizon = Ocolos_proc.Proc.run ~cycle_limit:(Clock.seconds_to_cycles horizon) proc

(* A single-process campaign over [proc] under the gate policy [config]. *)
let campaign ?guard ?ocolos_config config proc =
  Fleet.create ~config:{ Fleet.default_config with Fleet.daemon = config } ?ocolos_config
    ?guard [| proc |]

let version fleet = Ocolos_core.Ocolos.version (Fleet.ocolos fleet 0)

(* Tick the controller once per simulated second for [seconds]; collect
   non-idle actions. *)
let run_daemon fleet proc ~from ~seconds =
  let actions = ref [] in
  for s = from + 1 to from + seconds do
    drive proc (float_of_int s);
    match Fleet.tick fleet ~now_s:(float_of_int s) with
    | Fleet.Idle -> ()
    | a -> actions := (s, a) :: !actions
  done;
  List.rev !actions

(* Run [f] with a fresh metrics registry and event log installed; return
   its result, a counter reader and the logged events. *)
let observed f =
  let reg = Metrics.create () and log = Events.create () in
  let r = Metrics.with_installed reg (fun () -> Events.with_installed log f) in
  (r, (fun name -> Metrics.counter_value (Metrics.counter reg name)), Events.events log)

let test_daemon_optimizes_frontend_bound () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let config = { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5 } in
  let fleet = campaign config proc in
  let actions = run_daemon fleet proc ~from:0 ~seconds:6 in
  Alcotest.(check bool) "started profiling" true
    (List.exists (fun (_, a) -> match a with Fleet.Started_profiling _ -> true | _ -> false)
       actions);
  Alcotest.(check int) "replaced once" 1 (Fleet.rollouts fleet);
  Alcotest.(check int) "version 1" 1 (version fleet)

let test_daemon_steady_state_no_churn () =
  (* After the first optimization, a steady workload must not trigger
     re-optimization. *)
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let config =
    { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5; min_interval_s = 3.0 }
  in
  let fleet = campaign config proc in
  ignore (run_daemon fleet proc ~from:0 ~seconds:20);
  Alcotest.(check int) "exactly one replacement" 1 (Fleet.rollouts fleet)

let test_daemon_reoptimizes_on_input_shift () =
  (* Needs a workload where layout actually matters (tiny fits the L1i, so
     a stale layout costs nothing there). *)
  let w = Apps.mysql_like () in
  let proc = Workload.launch w ~input:(Workload.find_input w "point_select") in
  let config =
    { Daemon.default_config with
      Daemon.profile_s = 2.0;
      warmup_s = 0.5;
      min_interval_s = 2.0;
      regression_tolerance = 0.08 }
  in
  let fleet = campaign config proc in
  ignore (run_daemon fleet proc ~from:0 ~seconds:8);
  Alcotest.(check int) "optimized for point_select" 1 (Fleet.rollouts fleet);
  (* Shift the input; throughput under the stale C1 layout drops, and the
     controller must produce C2. *)
  Workload.set_input w proc (Workload.find_input w "write_only");
  ignore (run_daemon fleet proc ~from:8 ~seconds:12);
  Alcotest.(check bool) "re-optimized after shift" true (Fleet.rollouts fleet >= 2);
  Alcotest.(check bool) "version advanced" true (version fleet >= 2)

(* ---- decision-boundary tests on the pure gate ---- *)

let test_decide_frontend_gate_boundary () =
  let c = { Daemon.default_config with Daemon.frontend_threshold = 0.25 } in
  let decide frontend =
    Daemon.decide c ~replacements:0 ~version:0 ~now_s:10.0 ~last_replacement_s:neg_infinity
      ~tps:100.0 ~best_tps:100.0 ~frontend
  in
  Alcotest.(check bool) "exactly at threshold fires" true (decide 0.25 <> None);
  Alcotest.(check bool) "just below is quiet" true (decide 0.2499 = None);
  Alcotest.(check bool) "well above fires" true (decide 0.9 <> None)

let test_decide_regression_tolerance_boundary () =
  (* tol = 0.5 so (1 - tol) * best is exact in floating point. *)
  let c =
    { Daemon.default_config with
      Daemon.regression_tolerance = 0.5;
      min_interval_s = 5.0 }
  in
  let decide ~tps =
    Daemon.decide c ~replacements:1 ~version:1 ~now_s:20.0 ~last_replacement_s:10.0 ~tps
      ~best_tps:1000.0 ~frontend:0.9
  in
  Alcotest.(check bool) "exactly at (1-tol)*best is quiet" true (decide ~tps:500.0 = None);
  Alcotest.(check bool) "strictly below fires" true (decide ~tps:499.9 <> None);
  Alcotest.(check bool) "above is quiet" true (decide ~tps:900.0 = None);
  (* Once replaced, the front-end gate no longer applies: only drift does. *)
  Alcotest.(check bool) "no drift, no churn" true (decide ~tps:1000.0 = None)

let test_decide_min_interval_boundary () =
  let c =
    { Daemon.default_config with
      Daemon.regression_tolerance = 0.5;
      min_interval_s = 5.0 }
  in
  let decide ~now_s =
    Daemon.decide c ~replacements:1 ~version:1 ~now_s ~last_replacement_s:10.0 ~tps:10.0
      ~best_tps:1000.0 ~frontend:0.9
  in
  Alcotest.(check bool) "amortization gate closed just before" true (decide ~now_s:14.999 = None);
  Alcotest.(check bool) "open exactly at min_interval_s" true (decide ~now_s:15.0 <> None);
  Alcotest.(check bool) "open after" true (decide ~now_s:16.0 <> None)

let test_decide_min_interval_gates_first_campaign () =
  (* Regression: the amortization gate must apply to the [replacements = 0]
     branch too. A campaign that gives up re-arms [last_replacement_s] while
     leaving [replacements] at 0; if the front-end check ran first, the
     daemon would re-enter profiling on the very next tick and loop
     profile / rollback / give-up back to back. *)
  let c =
    { Daemon.default_config with Daemon.frontend_threshold = 0.25; min_interval_s = 10.0 }
  in
  let decide ~now_s =
    Daemon.decide c ~replacements:0 ~version:0 ~now_s ~last_replacement_s:100.0 ~tps:100.0
      ~best_tps:100.0 ~frontend:0.9
  in
  Alcotest.(check bool) "front-end bound but inside the interval: quiet" true
    (decide ~now_s:100.1 = None);
  Alcotest.(check bool) "still quiet just before the interval" true
    (decide ~now_s:109.999 = None);
  Alcotest.(check bool) "re-profiles once the interval elapses" true
    (decide ~now_s:110.0 <> None);
  (* A fresh daemon (last_replacement_s = -inf) is never delayed. *)
  Alcotest.(check bool) "first-ever profile immediate" true
    (Daemon.decide c ~replacements:0 ~version:0 ~now_s:0.0 ~last_replacement_s:neg_infinity
       ~tps:100.0 ~best_tps:100.0 ~frontend:0.9
    <> None)

(* ---- rollback / retry through the tick loop ---- *)

let fault_setup schedule_point schedule =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let fault = Ocolos_util.Fault.create ~seed:5 () in
  Ocolos_util.Fault.arm fault schedule_point schedule;
  (proc, { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault })

let retry_events events =
  List.filter_map
    (fun (e : Events.event) ->
      if e.Events.e_type <> "fleet.retry" then None
      else
        match
          (List.assoc_opt "point" e.Events.e_fields, List.assoc_opt "attempt" e.Events.e_fields)
        with
        | Some (Ocolos_obs.Trace.S point), Some (Ocolos_obs.Trace.I attempt) ->
          Some (point, attempt)
        | _ -> None)
    events

let test_daemon_rolls_back_then_retries () =
  (* An Nth 1 fault fires on the first attempt only: the transaction rolls
     back at the armed point, the controller backs off, retries the same
     BOLT result as attempt 2 and commits it, and the rollout completes
     without a staged rollback. *)
  let proc, ocolos_config = fault_setup "vtable_patch" (Ocolos_util.Fault.Nth 1) in
  let config =
    { Daemon.default_config with
      Daemon.profile_s = 1.0;
      warmup_s = 0.5;
      max_retries = 3;
      retry_backoff_s = 1.0 }
  in
  let (fleet, actions), counter, events =
    observed (fun () ->
        let fleet = campaign ~ocolos_config config proc in
        (fleet, List.map snd (run_daemon fleet proc ~from:0 ~seconds:10)))
  in
  let has p = List.exists p actions in
  Alcotest.(check (list (pair string int))) "retried attempt 2 after rolling back at the armed point"
    [ ("vtable_patch", 2) ] (retry_events events);
  Alcotest.(check bool) "no staged rollback" false
    (has (function Fleet.Rolled_back _ -> true | _ -> false));
  Alcotest.(check bool) "then committed" true
    (has (function Fleet.Promoted _ -> true | _ -> false));
  Alcotest.(check int) "one rollback counted" 1 (counter "ocolos_txn_rollbacks_total");
  Alcotest.(check int) "one retry counted" 1 (counter "ocolos_fleet_retries_total");
  Alcotest.(check int) "one replacement" 1 (Fleet.rollouts fleet);
  Alcotest.(check int) "version advanced" 1 (version fleet)

let test_daemon_gives_up_after_max_retries () =
  (* Every 1: the fault fires on every attempt; after max_retries extra
     tries the controller takes the staged rollback and the process stays
     on C0. *)
  let proc, ocolos_config = fault_setup "pause" (Ocolos_util.Fault.Every 1) in
  let config =
    { Daemon.default_config with
      Daemon.profile_s = 1.0;
      warmup_s = 0.5;
      min_interval_s = 30.0;
      max_retries = 2;
      retry_backoff_s = 1.0 }
  in
  (* Tick until the first give-up; after it the controller would start a
     fresh campaign (replacements is still 0), so stop right there to keep
     the counters exact. *)
  let gave_up = ref false in
  let now = ref 0 in
  let fleet, counter, events =
    observed (fun () ->
        let fleet = campaign ~ocolos_config config proc in
        while (not !gave_up) && !now < 20 do
          incr now;
          drive proc (float_of_int !now);
          match Fleet.tick fleet ~now_s:(float_of_int !now) with
          | Fleet.Rolled_back { reason; _ } ->
            Alcotest.(check string) "gave up at the armed point"
              "canary replace rolled back at pause" reason;
            gave_up := true
          | _ -> ()
        done;
        fleet)
  in
  Alcotest.(check bool) "gave up after exhausting retries" true !gave_up;
  Alcotest.(check (list (pair string int))) "retried attempts 2 and 3"
    [ ("pause", 2); ("pause", 3) ] (retry_events events);
  Alcotest.(check int) "three attempts rolled back" 3 (counter "ocolos_txn_rollbacks_total");
  Alcotest.(check int) "two retries" 2 (counter "ocolos_fleet_retries_total");
  Alcotest.(check int) "nothing replaced" 0 (Fleet.rollouts fleet);
  Alcotest.(check int) "still on C0" 0 (version fleet);
  Alcotest.(check bool) "back to monitoring" true (Fleet.monitoring fleet);
  (* The managed process survived three aborted attempts. *)
  let tx = Ocolos_proc.Proc.transactions proc in
  drive proc (float_of_int !now +. 2.0);
  Alcotest.(check bool) "process still making progress" true
    (Ocolos_proc.Proc.transactions proc > tx)

(* ---- supervision: jitter, breaker, quarantine, watchdog ---- *)

module Guard = Ocolos_core.Guard

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let test_guard_jitter_bounds_and_determinism () =
  let g = Guard.create ~seed:3 () in
  for _ = 1 to 200 do
    let j = Guard.jittered g 2.0 in
    Alcotest.(check bool) "within +/-25%" true (j >= 1.5 && j <= 2.5)
  done;
  let a = Guard.create ~seed:9 () and b = Guard.create ~seed:9 () in
  let xs = List.init 20 (fun _ -> Guard.jittered a 1.0) in
  let ys = List.init 20 (fun _ -> Guard.jittered b 1.0) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys);
  let c = Guard.create ~seed:10 () in
  let zs = List.init 20 (fun _ -> Guard.jittered c 1.0) in
  Alcotest.(check bool) "different seed, different stream" true (xs <> zs);
  (* The stream actually varies — jitter is not a constant offset. *)
  Alcotest.(check bool) "jitter varies" true
    (List.exists (fun x -> Float.abs (x -. List.hd xs) > 1e-9) (List.tl xs))

let test_guard_breaker_state_machine () =
  let config =
    { Guard.default_config with
      Guard.breaker_threshold = 2;
      breaker_cooldown_s = 10.0;
      jitter = 0.0 (* deterministic cooldown for exact boundary checks *) }
  in
  let g = Guard.create ~config ~seed:1 () in
  Alcotest.(check bool) "starts closed" true (Guard.breaker_state g = Guard.Closed);
  Guard.campaign_failed g ~now_s:0.0;
  Alcotest.(check bool) "one failure: still closed" true (Guard.breaker_state g = Guard.Closed);
  Alcotest.(check bool) "degraded tier after a failure" true
    (Guard.tier g = `Func_reorder_only);
  Guard.campaign_failed g ~now_s:1.0;
  (match Guard.breaker_state g with
  | Guard.Open { until_s } -> Alcotest.(check (float 1e-9)) "cooldown" 11.0 until_s
  | _ -> Alcotest.fail "breaker should be open at the threshold");
  Alcotest.(check bool) "refuses during cooldown" false (Guard.allow_campaign g ~now_s:5.0);
  Alcotest.(check bool) "still open" true
    (match Guard.breaker_state g with Guard.Open _ -> true | _ -> false);
  Alcotest.(check bool) "admits the probe after cooldown" true
    (Guard.allow_campaign g ~now_s:11.0);
  Alcotest.(check bool) "half-open during the probe" true
    (Guard.breaker_state g = Guard.Half_open);
  Guard.campaign_failed g ~now_s:12.0;
  Alcotest.(check bool) "failed probe re-opens" true
    (match Guard.breaker_state g with Guard.Open _ -> true | _ -> false);
  Alcotest.(check int) "opened twice" 2 (Guard.breaker_opens g);
  Alcotest.(check bool) "probe again" true (Guard.allow_campaign g ~now_s:30.0);
  Guard.campaign_succeeded g;
  Alcotest.(check bool) "success closes" true (Guard.breaker_state g = Guard.Closed);
  Alcotest.(check int) "consecutive reset" 0 (Guard.consecutive_failures g);
  Alcotest.(check bool) "tier restored" true (Guard.tier g = `Full)

let test_guard_quarantine_monotone () =
  let g = Guard.create ~config:{ Guard.default_config with Guard.quarantine_after = 2 } () in
  Guard.record_func_failures g [ (3, "bolt.cfg"); (7, "bolt.bb_reorder") ];
  Alcotest.(check (list int)) "below threshold" [] (Guard.quarantined g);
  Guard.record_func_failures g [ (3, "bolt.peephole") ];
  Alcotest.(check (list int)) "fid 3 quarantined at 2 failures" [ 3 ] (Guard.quarantined g);
  Alcotest.(check bool) "is_quarantined" true (Guard.is_quarantined g 3);
  Guard.record_func_failures g [ (3, "bolt.cfg"); (7, "bolt.cfg") ];
  Alcotest.(check (list int)) "monotone, sorted" [ 3; 7 ] (Guard.quarantined g);
  Guard.campaign_succeeded g;
  Alcotest.(check (list int)) "success never un-quarantines" [ 3; 7 ] (Guard.quarantined g)

let test_guard_watchdog () =
  let g =
    Guard.create
      ~config:
        { Guard.default_config with
          Guard.perf2bolt_deadline_s = Some 1.0;
          bolt_deadline_s = None }
      ()
  in
  Alcotest.(check bool) "under deadline" false
    (Guard.check_deadline g ~phase:`Perf2bolt ~seconds:0.5);
  Alcotest.(check bool) "over deadline trips" true
    (Guard.check_deadline g ~phase:`Perf2bolt ~seconds:1.5);
  Alcotest.(check bool) "unconfigured phase never trips" false
    (Guard.check_deadline g ~phase:`Bolt ~seconds:1e9);
  Alcotest.(check int) "one trip counted" 1 (Guard.watchdog_trips g)

let test_daemon_campaign_abort_on_pipeline_fault () =
  (* A fault escaping perf2bolt is not a rollback: nothing was paused. The
     campaign aborts cleanly, the layout is kept, and monitoring resumes. *)
  let proc, ocolos_config = fault_setup "perf2bolt.aggregate" (Ocolos_util.Fault.Every 1) in
  let config =
    { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5; min_interval_s = 30.0 }
  in
  let (fleet, actions), counter, _ =
    observed (fun () ->
        let fleet = campaign ~ocolos_config config proc in
        (fleet, List.map snd (run_daemon fleet proc ~from:0 ~seconds:6)))
  in
  Alcotest.(check bool) "campaign aborted naming the point" true
    (List.exists
       (function
         | Fleet.Campaign_aborted reason -> contains ~affix:"perf2bolt.aggregate" reason
         | _ -> false)
       actions);
  Alcotest.(check int) "no attempts entered the transaction" 0
    (counter "ocolos_txn_commits_total" + counter "ocolos_txn_rollbacks_total"
    + counter "ocolos_txn_divergence_rollbacks_total");
  Alcotest.(check int) "still on C0" 0 (version fleet);
  Alcotest.(check bool) "back to monitoring" true (Fleet.monitoring fleet)

let test_daemon_breaker_opens_then_recovers () =
  (* One aborted campaign with breaker_threshold = 1: the breaker opens, a
     warranted campaign is refused (Breaker_open), the half-open probe after
     cooldown runs fault-free (Nth 1 already fired) and commits, closing the
     breaker. *)
  let proc, ocolos_config = fault_setup "perf2bolt.aggregate" (Ocolos_util.Fault.Nth 1) in
  let config =
    { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5; min_interval_s = 2.0 }
  in
  let guard =
    Guard.create
      ~config:
        { Guard.default_config with Guard.breaker_threshold = 1; breaker_cooldown_s = 5.0 }
      ~seed:2 ()
  in
  let fleet = campaign ~guard ~ocolos_config config proc in
  let actions = List.map snd (run_daemon fleet proc ~from:0 ~seconds:20) in
  let has p = List.exists p actions in
  Alcotest.(check bool) "campaign aborted" true
    (has (function Fleet.Campaign_aborted _ -> true | _ -> false));
  Alcotest.(check bool) "breaker refused a warranted campaign" true
    (has (function Fleet.Breaker_open _ -> true | _ -> false));
  Alcotest.(check bool) "half-open probe committed" true
    (has (function Fleet.Promoted _ -> true | _ -> false));
  Alcotest.(check bool) "breaker closed again" true (Guard.breaker_state guard = Guard.Closed);
  Alcotest.(check int) "opened exactly once" 1 (Guard.breaker_opens guard);
  Alcotest.(check int) "one replacement" 1 (Fleet.rollouts fleet)

let test_daemon_quarantines_repeat_offenders () =
  (* bolt.cfg on every cut: every hot function's CFG reconstruction fails
     in every campaign (absorbed as skip-this-function degradation), so
     after quarantine_after campaigns those fids are excluded for good.
     regression_tolerance < 0 forces a campaign every min_interval. *)
  let proc, ocolos_config = fault_setup "bolt.cfg" (Ocolos_util.Fault.Every 1) in
  let config =
    { Daemon.default_config with
      Daemon.profile_s = 1.0;
      warmup_s = 0.5;
      min_interval_s = 2.0;
      regression_tolerance = -0.5 }
  in
  let fleet = campaign ~ocolos_config config proc in
  let quarantined () = Guard.quarantined (Fleet.guard fleet) in
  ignore (run_daemon fleet proc ~from:0 ~seconds:10);
  Alcotest.(check bool) "campaigns still commit (degraded)" true (Fleet.rollouts fleet >= 2);
  let q1 = quarantined () in
  Alcotest.(check bool) "repeat offenders quarantined" true (q1 <> []);
  ignore (run_daemon fleet proc ~from:10 ~seconds:4);
  let q2 = quarantined () in
  Alcotest.(check bool) "quarantine is monotone" true
    (List.for_all (fun fid -> List.mem fid q2) q1)

let test_daemon_watchdog_aborts_campaign () =
  (* A zero perf2bolt deadline trips on any modeled duration: the campaign
     aborts before BOLT, nothing is paused, the layout is kept. *)
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let config =
    { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5; min_interval_s = 30.0 }
  in
  let guard =
    Guard.create
      ~config:{ Guard.default_config with Guard.perf2bolt_deadline_s = Some 0.0 }
      ()
  in
  let fleet = campaign ~guard config proc in
  let actions = List.map snd (run_daemon fleet proc ~from:0 ~seconds:6) in
  Alcotest.(check bool) "watchdog abort" true
    (List.exists
       (function
         | Fleet.Campaign_aborted reason -> contains ~affix:"watchdog" reason
         | _ -> false)
       actions);
  Alcotest.(check int) "watchdog tripped" 1 (Guard.watchdog_trips guard);
  Alcotest.(check int) "still on C0" 0 (version fleet)

let test_perf_report_finds_hot_function () =
  (* Under the original layout, the parser should rank among the top L1i
     missers (the MYSQLparse effect); under OCOLOS it should fade. *)
  let w = Apps.mysql_like () in
  let input = Workload.find_input w "read_only" in
  let proc = Workload.launch w ~input in
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  let session = Ocolos_profiler.Perf_report.start ~period:3 proc in
  Ocolos_proc.Proc.run ~cycle_limit:600_000.0 proc;
  let report = Ocolos_profiler.Perf_report.stop session in
  let rows = Ocolos_profiler.Perf_report.by_function report w.Workload.binary in
  Alcotest.(check bool) "samples collected" true (List.length rows > 5);
  let parser_fid =
    match w.Workload.gen.Gen.parser_fid with Some f -> f | None -> assert false
  in
  let top20 = List.filteri (fun i _ -> i < 20) rows in
  Alcotest.(check bool) "parser in top-20 missers" true
    (List.exists (fun r -> r.Ocolos_profiler.Perf_report.fr_fid = parser_fid) top20);
  (* Annotate: per-address counts of the parser sum to its total. *)
  let annotated = Ocolos_profiler.Perf_report.annotate report w.Workload.binary parser_fid in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 annotated in
  Alcotest.(check int) "annotate sums"
    (Ocolos_profiler.Perf_report.samples_of_func report w.Workload.binary parser_fid)
    total;
  (* Sampling stops after detach. *)
  let before = List.length rows in
  Ocolos_proc.Proc.run ~cycle_limit:700_000.0 proc;
  Alcotest.(check int) "no more samples" before
    (List.length (Ocolos_profiler.Perf_report.by_function report w.Workload.binary))

let suite =
  [ Alcotest.test_case "daemon optimizes frontend-bound" `Quick
      test_daemon_optimizes_frontend_bound;
    Alcotest.test_case "daemon steady state no churn" `Quick test_daemon_steady_state_no_churn;
    Alcotest.test_case "daemon reoptimizes on input shift" `Slow
      test_daemon_reoptimizes_on_input_shift;
    Alcotest.test_case "decide: front-end gate boundary" `Quick
      test_decide_frontend_gate_boundary;
    Alcotest.test_case "decide: regression tolerance boundary" `Quick
      test_decide_regression_tolerance_boundary;
    Alcotest.test_case "decide: min-interval boundary" `Quick test_decide_min_interval_boundary;
    Alcotest.test_case "decide: min-interval gates the first campaign" `Quick
      test_decide_min_interval_gates_first_campaign;
    Alcotest.test_case "daemon rolls back then retries" `Quick
      test_daemon_rolls_back_then_retries;
    Alcotest.test_case "daemon gives up after max retries" `Quick
      test_daemon_gives_up_after_max_retries;
    Alcotest.test_case "guard jitter bounds and determinism" `Quick
      test_guard_jitter_bounds_and_determinism;
    Alcotest.test_case "guard breaker state machine" `Quick test_guard_breaker_state_machine;
    Alcotest.test_case "guard quarantine monotone" `Quick test_guard_quarantine_monotone;
    Alcotest.test_case "guard watchdog" `Quick test_guard_watchdog;
    Alcotest.test_case "daemon aborts campaign on pipeline fault" `Quick
      test_daemon_campaign_abort_on_pipeline_fault;
    Alcotest.test_case "daemon breaker opens then recovers" `Quick
      test_daemon_breaker_opens_then_recovers;
    Alcotest.test_case "daemon quarantines repeat offenders" `Quick
      test_daemon_quarantines_repeat_offenders;
    Alcotest.test_case "daemon watchdog aborts campaign" `Quick
      test_daemon_watchdog_aborts_campaign;
    Alcotest.test_case "perf report finds hot function" `Quick
      test_perf_report_finds_hot_function ]
