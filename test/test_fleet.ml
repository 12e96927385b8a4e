(* Fleet orchestration tests: canary promotion and rollback state machines,
   the per-replica retry before a staged rollback, mid-rollout daemon
   death + restart convergence, the 1-replica fleet-vs-direct-pipeline byte
   differential, the open-loop traffic model, the fleet driver's
   layout-health recording, and the chaos scenario-label regression. *)

open Ocolos_workloads
module Fleet = Ocolos_core.Fleet
module Daemon = Ocolos_core.Daemon
module Guard = Ocolos_core.Guard
module Ocolos = Ocolos_core.Ocolos
module Chaos = Ocolos_sim.Chaos
module Fault = Ocolos_util.Fault
module Proc = Ocolos_proc.Proc
module Counters = Ocolos_uarch.Counters
module Obs = Ocolos_obs

let daemon_config =
  { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5; min_interval_s = 2.0 }

(* Instruction-budget driving gives the canary a verify window of only a few
   tens of thousands of instructions, so post-replacement cold-start (L1i /
   BTB warmup on the new layout) dominates its cohort IPC while the rest
   cohort's ratio floats up just from dropping profiling overhead. Widen the
   A/B guard so the state-machine tests exercise promotion rather than the
   cold-start artifact; the rollback test still trips it with its 5x
   synthetic regression. *)
let fleet_config =
  { Fleet.default_config with Fleet.daemon = daemon_config; Fleet.max_ipc_drop = 0.5 }

(* Heterogeneous fleet on the endless tiny workload: input "a" on even
   replicas, "b" on odd — the aggregated profile is a real cross-replica
   union, not N copies of one stream. *)
let launch_procs ?(n = 4) ?(seed = 5) () =
  let w = Apps.tiny ~tx_limit:None () in
  Array.init n (fun i ->
      Workload.launch ~seed:(seed + i) w
        ~input:(Workload.find_input w (if i mod 2 = 0 then "a" else "b")))

(* Instruction-budget driving (the chaos idiom): deterministic regardless
   of stalls; tick i is simulated second i+1. *)
let step procs i =
  Array.iter (fun p -> Proc.run ~cycle_limit:infinity ~max_instrs:12_000 p) procs;
  float_of_int (i + 1)

let drive fleet procs ~max_ticks ~until =
  let actions = ref [] in
  let rec loop i =
    if i >= max_ticks then None
    else begin
      let now_s = step procs i in
      let a = Fleet.tick fleet ~now_s in
      if a <> Fleet.Idle then actions := a :: !actions;
      if until a then Some a else loop (i + 1)
    end
  in
  let final = loop 0 in
  (List.rev !actions, final)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- canary state machine ---- *)

let test_canary_promotion () =
  let procs = launch_procs () in
  let fleet = Fleet.create ~config:fleet_config procs in
  let actions, final =
    drive fleet procs ~max_ticks:30 ~until:(function Fleet.Promoted _ -> true | _ -> false)
  in
  (match final with
  | Some (Fleet.Promoted { version = 1; replicas = 4 }) -> ()
  | Some a -> Alcotest.fail ("unexpected terminal action: " ^ Fleet.action_to_string a)
  | None -> Alcotest.fail "no promotion within the tick budget");
  (* ceil(0.25 * 4) = 1 canary, lowest replica ids first. *)
  (match
     List.find_opt (function Fleet.Canary_started _ -> true | _ -> false) actions
   with
  | Some (Fleet.Canary_started { version = 1; canaries = [ 0 ] }) -> ()
  | Some a -> Alcotest.fail ("bad canary stage: " ^ Fleet.action_to_string a)
  | _ -> Alcotest.fail "promotion without a canary stage");
  Alcotest.(check (list int)) "all replicas on C1" [ 1; 1; 1; 1 ] (Fleet.versions fleet);
  Alcotest.(check bool) "converged" true (Fleet.converged fleet);
  Alcotest.(check int) "one rollout" 1 (Fleet.rollouts fleet);
  Alcotest.(check int) "no rollbacks" 0 (Fleet.rollbacks fleet)

let test_canary_rollback () =
  (* canary_ipc_scale 0.2 makes the verify-window IPC read 5x too low: the
     guard threshold trips and the staged rollback must put every touched
     replica back on C0. *)
  let procs = launch_procs () in
  let fleet =
    Fleet.create ~config:{ fleet_config with Fleet.canary_ipc_scale = 0.2 } procs
  in
  let _, final =
    drive fleet procs ~max_ticks:30
      ~until:(function Fleet.Rolled_back _ -> true | _ -> false)
  in
  (match final with
  | Some (Fleet.Rolled_back { reason; reverted = [ 0 ] }) ->
    Alcotest.(check bool) "reason names the IPC regression" true (contains reason "IPC")
  | Some a -> Alcotest.fail ("unexpected terminal action: " ^ Fleet.action_to_string a)
  | None -> Alcotest.fail "no rollback within the tick budget");
  (* the verdict is recorded for post-mortems: the readout the CLI
     [explain] subcommand prints must name the same breached signal *)
  (match Fleet.last_readout fleet with
  | Some ro ->
    Alcotest.(check int) "readout names the candidate version" 1 ro.Fleet.ro_version;
    Alcotest.(check (list int)) "readout canary cohort" [ 0 ] ro.Fleet.ro_canary.Fleet.co_ids;
    (match ro.Fleet.ro_breach with
    | Some ("ipc", _) -> ()
    | Some (s, _) -> Alcotest.fail ("readout breached wrong signal: " ^ s)
    | None -> Alcotest.fail "rolled back but readout records no breach")
  | None -> Alcotest.fail "rollback left no readout behind");
  Alcotest.(check (list int)) "all replicas back on C0" [ 0; 0; 0; 0 ] (Fleet.versions fleet);
  Alcotest.(check bool) "converged" true (Fleet.converged fleet);
  Alcotest.(check int) "no rollouts" 0 (Fleet.rollouts fleet);
  Alcotest.(check int) "one rollback" 1 (Fleet.rollbacks fleet);
  Alcotest.(check int) "guard heard the failure" 1
    (Guard.consecutive_failures (Fleet.guard fleet))

(* ---- per-replica retry before the staged rollback ---- *)

(* A 4-replica fleet with vtable_patch armed on its first hit: the canary's
   transaction rolls back once. Returns the non-idle actions up to the
   first terminal one, the transaction-rollback and retry counts, and the
   per-replica versions. *)
let retry_run ~max_retries =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.with_installed reg @@ fun () ->
  let procs = launch_procs () in
  let fault = Fault.create ~seed:5 () in
  Fault.arm fault "vtable_patch" (Fault.Nth 1);
  let config =
    { fleet_config with Fleet.daemon = { daemon_config with Daemon.max_retries } }
  in
  let fleet =
    Fleet.create ~config ~ocolos_config:{ Ocolos.default_config with Ocolos.fault = Some fault }
      procs
  in
  let actions, _ =
    drive fleet procs ~max_ticks:30
      ~until:(function Fleet.Promoted _ | Fleet.Rolled_back _ -> true | _ -> false)
  in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter reg name) in
  ( actions,
    counter "ocolos_txn_rollbacks_total",
    counter "ocolos_fleet_retries_total",
    Fleet.versions fleet )

let test_canary_retry_then_promote () =
  let actions, txn_rollbacks, retries, versions = retry_run ~max_retries:3 in
  (match actions with
  | [ Fleet.Started_profiling _; Fleet.Canary_started { version = 1; canaries = [ 0 ] };
      Fleet.Promoted { version = 1; replicas = 4 } ] -> ()
  | _ ->
    Alcotest.fail
      ("expected profile, canary, promote; got "
      ^ String.concat "; " (List.map Fleet.action_to_string actions)));
  Alcotest.(check int) "the canary rolled back once" 1 txn_rollbacks;
  Alcotest.(check int) "and was retried once" 1 retries;
  Alcotest.(check (list int)) "every replica on C1" [ 1; 1; 1; 1 ] versions

let test_canary_no_retry_budget_rolls_back () =
  let actions, txn_rollbacks, retries, versions = retry_run ~max_retries:0 in
  (match actions with
  | [ Fleet.Started_profiling _;
      Fleet.Rolled_back { reason = "canary replace rolled back at vtable_patch"; reverted = [] } ]
    -> ()
  | _ ->
    Alcotest.fail
      ("expected an immediate staged rollback; got "
      ^ String.concat "; " (List.map Fleet.action_to_string actions)));
  Alcotest.(check int) "the canary rolled back once" 1 txn_rollbacks;
  Alcotest.(check int) "no retry" 0 retries;
  Alcotest.(check (list int)) "every replica on C0" [ 0; 0; 0; 0 ] versions

(* ---- cohort A/B readout, hand-computed ---- *)

let test_cohort_readout_hand_computed () =
  (* 4-replica fleet: replica 0 is the canary, 1-3 the rest cohort.
     Counters are pre-summed per cohort (how [Fleet] builds them) and every
     derived rate below is computed by hand. *)
  let feq name expected got = Alcotest.(check (float 1e-9)) name expected got in
  let canary_base = { Counters.zero with Counters.instructions = 10_000; cycles = 8_000.0 } in
  let canary_verify =
    { Counters.zero with
      Counters.instructions = 20_000;
      cycles = 10_000.0;
      l1i_misses = 40;
      itlb_misses = 10;
      btb_misses = 100;
      taken_branches = 3_000 }
  in
  (* rest = sum over replicas 1-3: baseline 36k instrs / 30k cycles, verify
     72k / 36k. *)
  let rest_base = { Counters.zero with Counters.instructions = 36_000; cycles = 30_000.0 } in
  let rest_verify = { Counters.zero with Counters.instructions = 72_000; cycles = 36_000.0 } in
  let canary =
    Fleet.cohort_of ~ids:[ 0 ] ~baseline:canary_base ~verify:canary_verify ~p99:0.012
      ~base_p99:0.010 ()
  in
  let rest =
    Fleet.cohort_of ~ids:[ 1; 2; 3 ] ~baseline:rest_base ~verify:rest_verify ~p99:0.011
      ~base_p99:0.010 ()
  in
  (* canary: base IPC 10000/8000 = 1.25, verify IPC 20000/10000 = 2.0,
     ratio 1.6; MPKIs over the 20k verify instrs. *)
  feq "canary baseline IPC" 1.25 canary.Fleet.co_base_ipc;
  feq "canary verify IPC" 2.0 canary.Fleet.co_ipc;
  feq "canary IPC ratio" 1.6 canary.Fleet.co_ipc_ratio;
  feq "canary L1i MPKI" 2.0 canary.Fleet.co_l1i_mpki;
  feq "canary iTLB MPKI" 0.5 canary.Fleet.co_itlb_mpki;
  feq "canary BTB MPKI" 5.0 canary.Fleet.co_btb_mpki;
  feq "canary taken-branch PKI" 150.0 canary.Fleet.co_taken_pki;
  (* rest: 36000/30000 = 1.2 -> 72000/36000 = 2.0, ratio 5/3. *)
  feq "rest baseline IPC" 1.2 rest.Fleet.co_base_ipc;
  feq "rest IPC ratio" (2.0 /. 1.2) rest.Fleet.co_ipc_ratio;
  let config = { fleet_config with Fleet.max_ipc_drop = 0.1; Fleet.max_p99_rise = 0.5 } in
  (* difference-in-differences: guard = 0.9 * (5/3) = 1.5; the canary's 1.6
     clears it, and its p99 ratio 1.2 sits under 1.5 * 1.1 = 1.65. *)
  (match Fleet.judge config ~canary ~rest:(Some rest) with
  | None -> ()
  | Some (s, d) -> Alcotest.failf "clean readout breached %s: %s" s d);
  (* a 0.5 IPC scale (the --inject-regression knob) halves the canary's
     verify IPC: ratio 0.8 < 1.5 -> "ipc" breach. *)
  let injected =
    Fleet.cohort_of ~ids:[ 0 ] ~baseline:canary_base ~verify:canary_verify ~ipc_scale:0.5
      ~p99:0.012 ~base_p99:0.010 ()
  in
  feq "injected IPC ratio" 0.8 injected.Fleet.co_ipc_ratio;
  (match Fleet.judge config ~canary:injected ~rest:(Some rest) with
  | Some ("ipc", _) -> ()
  | Some (s, _) -> Alcotest.fail ("injected regression breached wrong signal: " ^ s)
  | None -> Alcotest.fail "injected IPC regression not caught");
  (* p99 side: canary ratio 0.020/0.010 = 2.0 > 1.5 * 1.1 -> "p99". *)
  let slow =
    Fleet.cohort_of ~ids:[ 0 ] ~baseline:canary_base ~verify:canary_verify ~p99:0.020
      ~base_p99:0.010 ()
  in
  (match Fleet.judge config ~canary:slow ~rest:(Some rest) with
  | Some ("p99", _) -> ()
  | Some (s, _) -> Alcotest.fail ("latency regression breached wrong signal: " ^ s)
  | None -> Alcotest.fail "p99 regression not caught");
  (* no rest cohort (1-replica fleet): the canary is judged against its own
     baseline — 2.0 vs 0.9 * 1.25 promotes, the halved 1.0 breaches. *)
  (match Fleet.judge config ~canary ~rest:None with
  | None -> ()
  | Some (s, d) -> Alcotest.failf "self-baseline verdict breached %s: %s" s d);
  (match Fleet.judge config ~canary:injected ~rest:None with
  | Some ("ipc", _) -> ()
  | _ -> Alcotest.fail "self-baseline regression not caught")

(* ---- mid-rollout death and restart ---- *)

let test_kill_mid_rollout_restart_converges () =
  (* One shared fault registry counts "commit" hits fleet-wide: hit 1 is
     the canary's commit, hit 2 the first promotion commit. Killing there
     strands a mixed C1/C0 fleet; the restart must revert the canary to C0
     and drive a fresh homogeneous campaign to a terminal outcome. *)
  match
    Chaos.fleet_scenario ~replicas:4 ~schedule:(Fault.Nth 2) ~seed:1 ~point:"commit" ()
  with
  | Chaos.Fleet_not_reached -> Alcotest.fail "commit hit 2 never fired"
  | Chaos.Fleet_verified o as r ->
    Alcotest.(check bool) "fleet was mixed at death" true o.Chaos.fo_mixed_at_death;
    Alcotest.(check bool) "reattach reverted the stranded canaries" true
      (o.Chaos.fo_reverted <> []);
    Alcotest.(check bool) "final fleet is homogeneous" true o.Chaos.fo_final_converged;
    if not (Chaos.fleet_passed r) then
      Alcotest.fail
        ("restart did not converge: "
        ^ Chaos.fleet_result_to_string ~seed:1 ~point:"commit" r)

let test_kill_before_canary_leaves_fleet_homogeneous () =
  (* Dying at the canary's own commit (hit 1) rolls that transaction back
     before the exception surfaces, so the fleet is never mixed at all. *)
  match Chaos.fleet_scenario ~replicas:3 ~seed:2 ~point:"commit" () with
  | Chaos.Fleet_not_reached -> Alcotest.fail "commit never fired"
  | Chaos.Fleet_verified o as r ->
    Alcotest.(check bool) "homogeneous at death" false o.Chaos.fo_mixed_at_death;
    Alcotest.(check (list int)) "nothing to revert on reattach" [] o.Chaos.fo_reverted;
    Alcotest.(check bool) "restart converges" true (Chaos.fleet_passed r)

(* ---- 1-replica differential: fleet == direct pipeline, byte for byte ---- *)

(* A one-replica fleet must be the single-process pipeline plus strictly
   additive observability: its Perf.start + decimate ~keep_every:1 +
   convert_sources profile path must equal Ocolos.stop_profiling, and its
   canary replace must be the same shadow-gated transaction. Same seed, same
   instruction-budget schedule, finite workload: the taken-branch trace,
   checksums, transaction count and the Prometheus export — minus the
   ocolos_fleet_* / ocolos_guard_* controller families, which name who was
   in charge — must be byte-identical between a 1-replica fleet and the
   direct Ocolos.start_profiling / stop_profiling / Step.optimize
   sequence. *)
let differential_run mode =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.with_installed reg @@ fun () ->
  let w = Apps.tiny ~tx_limit:(Some 1500) () in
  let proc = Workload.launch ~seed:3 w ~input:(Workload.find_input w "a") in
  let buf = ref [] in
  proc.Proc.hooks.Proc.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ->
        buf := (tid, from_addr, to_addr, kind) :: !buf);
  let version =
    match mode with
    | `Direct ->
      (* The fleet's schedule: its gate opens on the first tick past warmup
         (tick 0, the tiny workload is front-end bound) and the profiling
         window closes [profile_s] = 1 tick later, where the canary
         replaces. *)
      let oc = Ocolos.attach proc in
      for i = 0 to 11 do
        ignore (step [| proc |] i);
        if i = 0 then Ocolos.start_profiling oc
        else if i = 1 then begin
          let profile, _ = Ocolos.stop_profiling oc in
          match Ocolos_core.Step.optimize oc profile with
          | Ok _ -> ()
          | Error reason -> Alcotest.fail ("direct pipeline: " ^ reason)
        end
      done;
      Ocolos.version oc
    | `Fleet ->
      (* min_interval_s blocks any second campaign, so the fleet goes quiet
         after its first rollout. *)
      let dcfg = { daemon_config with Daemon.min_interval_s = 1000.0 } in
      let fleet = Fleet.create ~config:{ fleet_config with Fleet.daemon = dcfg } [| proc |] in
      for i = 0 to 11 do
        ignore (Fleet.tick fleet ~now_s:(step [| proc |] i))
      done;
      Alcotest.(check int) "fleet promoted once" 1 (Fleet.rollouts fleet);
      (match Fleet.versions fleet with [ v ] -> v | _ -> -1)
  in
  Proc.run ~cycle_limit:infinity ~max_instrs:50_000_000 proc;
  ( version,
    List.rev !buf,
    Workload.checksums proc,
    Proc.transactions proc,
    Obs.Metrics.to_prometheus reg )

let filter_controller_families export =
  String.split_on_char '\n' export
  |> List.filter (fun line ->
         not (List.exists (contains line) [ "ocolos_fleet_"; "ocolos_guard_" ]))
  |> String.concat "\n"

let test_one_replica_fleet_differential () =
  let dv, dtrace, dsums, dtx, dexport = differential_run `Direct in
  let fv, ftrace, fsums, ftx, fexport = differential_run `Fleet in
  Alcotest.(check int) "direct pipeline replaced" 1 dv;
  Alcotest.(check int) "fleet replaced" 1 fv;
  Alcotest.(check bool) "taken-branch traces byte-identical" true (dtrace = ftrace);
  Alcotest.(check (list int)) "checksums identical" dsums fsums;
  Alcotest.(check int) "transactions identical" dtx ftx;
  Alcotest.(check string) "pipeline metrics byte-identical"
    (filter_controller_families dexport)
    (filter_controller_families fexport)

(* ---- open-loop generator ---- *)

let test_openloop_schedules_deterministic () =
  let a = Openloop.poisson ~rate:40.0 ~seed:9 ~until_s:10.0 in
  let b = Openloop.poisson ~rate:40.0 ~seed:9 ~until_s:10.0 in
  Alcotest.(check bool) "pure function of (rate, seed)" true (a = b);
  let short = Openloop.poisson ~rate:40.0 ~seed:9 ~until_s:5.0 in
  let prefix = List.filteri (fun i _ -> i < List.length short) a in
  Alcotest.(check bool) "shorter horizon is a prefix" true (short = prefix);
  Alcotest.(check bool) "all arrivals inside the horizon" true
    (List.for_all (fun t -> t >= 0.0 && t < 10.0) a);
  let rec ascending = function
    | x :: (y :: _ as rest) -> x < y && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly ascending" true (ascending a);
  Alcotest.(check bool) "different seed, different schedule" true
    (a <> Openloop.poisson ~rate:40.0 ~seed:10 ~until_s:10.0);
  let u = Openloop.uniform ~rate:10.0 ~until_s:0.55 in
  Alcotest.(check int) "uniform count" 5 (List.length u);
  List.iteri
    (fun i t ->
      Alcotest.(check (float 1e-12)) "uniform spacing" (float_of_int (i + 1) *. 0.1) t)
    u

let test_openloop_pause_queue_hand_computed () =
  (* 20 arrivals at 0.05, 0.15, ..., 1.95; the server retires one request
     per 0.1s slice, except a replacement pause covering (1.0, 1.5] (five
     slices of zero capacity) followed by a catch-up slice of capacity 6.
     Every number below is hand-computed from that schedule. *)
  let arrivals = List.init 20 (fun k -> 0.05 +. (0.1 *. float_of_int k)) in
  let ol = Openloop.create ~arrivals in
  Openloop.advance ol ~now_s:0.0 ~completed:0;
  let completed_at j =
    (* cumulative completions at the end of slice j (now = 0.1 * (j+1)) *)
    if j <= 9 then j + 1 else if j <= 14 then 10 else if j = 15 then 16 else j + 1
  in
  let peak = ref 0 in
  for j = 0 to 19 do
    let now_s = 0.1 *. float_of_int (j + 1) in
    Openloop.advance ol ~now_s ~completed:(completed_at j);
    peak := max !peak (Openloop.queue_depth ol ~now_s)
  done;
  Alcotest.(check int) "all requests eventually served" 20 (Openloop.matched ol);
  Alcotest.(check int) "queue peaked at 5 during the pause" 5 !peak;
  Alcotest.(check int) "queue drained" 0 (Openloop.queue_depth ol ~now_s:2.0);
  (* Latencies: 15 prompt requests at 0.05s; the five queued during the
     pause drain at t=1.6 with latencies 0.55, 0.45, 0.35, 0.25, 0.15. *)
  Alcotest.(check (float 1e-9)) "p50 is the prompt latency" 0.05 (Openloop.p50 ol);
  Alcotest.(check (float 1e-9)) "p99 is the head-of-queue latency" 0.55 (Openloop.p99 ol);
  Alcotest.(check (float 1e-9)) "max equals p99 here" 0.55 (Openloop.max_latency ol);
  let sorted = Openloop.latencies ol in
  Array.sort compare sorted;
  List.iteri
    (fun i expect ->
      Alcotest.(check (float 1e-9)) "queued latency" expect sorted.(19 - i))
    [ 0.55; 0.45; 0.35; 0.25; 0.15 ]

let test_openloop_pause_in_fleet_driver () =
  (* End to end: the driver charges replacement pause debt as stalls, so a
     rollout must leave a worse tail than the pre-rollout baseline shows.
     Weak-form check (p99 >= p50 > 0 and a queue actually formed) to stay
     robust across cost-model tuning. *)
  let report, _fleet = Ocolos_sim.Fleet_driver.run ~replicas:2 ~ticks:12 ~seed:2 () in
  Alcotest.(check bool) "rollout happened" true (report.Ocolos_sim.Fleet_driver.fd_rollouts >= 1);
  Alcotest.(check bool) "requests were served" true
    (List.for_all
       (fun r -> r.Ocolos_sim.Fleet_driver.fr_matched > 0)
       report.Ocolos_sim.Fleet_driver.fd_replicas);
  Alcotest.(check bool) "tail at or above median" true
    (report.Ocolos_sim.Fleet_driver.fd_fleet_p99
    >= report.Ocolos_sim.Fleet_driver.fd_fleet_p50);
  Alcotest.(check bool) "queues formed" true
    (List.exists
       (fun r -> r.Ocolos_sim.Fleet_driver.fr_queue_peak > 0)
       report.Ocolos_sim.Fleet_driver.fd_replicas)

(* Layout-health recording is an observer: with [~health] the driver folds
   one window per replica per tick into the accumulator, and the run it
   reports is the run it reports without. *)
let test_fleet_driver_health () =
  let replicas = 2 and ticks = 4 in
  let run health =
    fst (Ocolos_sim.Fleet_driver.run ~replicas ~ticks ~seed:2 ?health ())
  in
  let lh = Obs.Layout_health.create () in
  let with_health = run (Some lh) in
  let windows rates = List.fold_left (fun acc r -> acc + r.Obs.Layout_health.r_windows) 0 rates in
  let versions = Obs.Layout_health.versions lh in
  Alcotest.(check bool) "a committed version was recorded" true (List.length versions >= 2);
  Alcotest.(check int) "one window per replica per tick" (replicas * ticks)
    (windows (List.filter_map (Obs.Layout_health.rates lh) versions));
  Alcotest.(check (list int)) "every replica recorded" (List.init replicas Fun.id)
    (Obs.Layout_health.replicas lh);
  List.iter
    (fun replica ->
      Alcotest.(check int) (Printf.sprintf "replica %d: one window per tick" replica) ticks
        (windows
           (List.filter_map
              (fun version -> Obs.Layout_health.replica_rates lh ~replica ~version)
              versions)))
    (Obs.Layout_health.replicas lh);
  Alcotest.(check bool) "per-function rows recorded" true
    (Obs.Layout_health.func_rows lh ~version:0 <> []);
  Alcotest.(check string) "same report as without ~health"
    (Ocolos_sim.Fleet_driver.report_to_string (run None))
    (Ocolos_sim.Fleet_driver.report_to_string with_health)

(* ---- chaos scenario labels (regression) ---- *)

let test_chaos_scenario_label_names_domain () =
  (* Failing-scenario artifacts must be self-describing: the label carries
     the armed point's fault domain, not just the point name. *)
  let r = { Chaos.r_seed = 3; r_point = "perf.detach"; r_outcome = Chaos.Not_reached } in
  Alcotest.(check string) "dotted point: domain prefix" "seed3-perf-perf_detach"
    (Chaos.scenario_label r);
  let r2 = { r with Chaos.r_point = "commit" } in
  Alcotest.(check string) "undotted points live in the txn domain" "seed3-txn-commit"
    (Chaos.scenario_label r2);
  Alcotest.(check bool) "report line names the domain" true
    (contains (Chaos.result_to_string r) "perf ")

let suite =
  [ Alcotest.test_case "canary promotion widens to the fleet" `Slow test_canary_promotion;
    Alcotest.test_case "canary IPC regression rolls the stage back" `Slow
      test_canary_rollback;
    Alcotest.test_case "canary replace rolls back, is retried, promotes" `Slow
      test_canary_retry_then_promote;
    Alcotest.test_case "max_retries 0: canary rollback is immediate" `Slow
      test_canary_no_retry_budget_rolls_back;
    Alcotest.test_case "cohort A/B readout matches hand computation" `Quick
      test_cohort_readout_hand_computed;
    Alcotest.test_case "kill mid-rollout: mixed fleet recovers on restart" `Slow
      test_kill_mid_rollout_restart_converges;
    Alcotest.test_case "kill at canary commit: fleet never mixed" `Slow
      test_kill_before_canary_leaves_fleet_homogeneous;
    Alcotest.test_case "1-replica fleet == direct pipeline, byte for byte" `Slow
      test_one_replica_fleet_differential;
    Alcotest.test_case "open-loop schedules are deterministic" `Quick
      test_openloop_schedules_deterministic;
    Alcotest.test_case "open-loop pause queue matches hand computation" `Quick
      test_openloop_pause_queue_hand_computed;
    Alcotest.test_case "fleet driver surfaces pauses as queues" `Slow
      test_openloop_pause_in_fleet_driver;
    Alcotest.test_case "fleet driver records layout health per replica per tick" `Quick
      test_fleet_driver_health;
    Alcotest.test_case "chaos scenario label names the fault domain" `Quick
      test_chaos_scenario_label_names_domain ]
