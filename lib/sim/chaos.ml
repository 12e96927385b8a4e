(* Kill/restart chaos harness: the executable form of the paper's Section
   VII claim that the OCOLOS daemon "can fail at any point" without harming
   the target.

   Each scenario arms one fault point *lethally* (seeded, deterministic) and
   runs three coordinated experiments:

   - a KILL run on a finite workload: the daemon dies at the armed point,
     then the orphaned target runs to termination with its full taken-branch
     trace recorded;
   - a REFERENCE run, same seed: an identical daemon commits exactly the
     replacements the dead daemon had committed, is then stopped (no death,
     no further interference), and the target runs to termination;
   - a CONVERGENCE run on an endless workload: after the kill, a fresh
     daemon is stood up with {!Ocolos_core.Supervisor.restart} and must
     reach a committed replacement or a clean give-up.

   The trace property needs the two runs' target-visible histories to match
   instruction-for-instruction up to the death. Two mechanisms make that
   exact rather than approximate. First, all driving is by *instruction*
   budget ([cycle_limit = infinity]): the round-robin scheduler then
   interleaves threads in instruction space, so profiling stalls (PMI
   overhead, pause windows) shift cycle time but cannot reorder the branch
   stream. Second, the recorder hook is installed before {!Ocolos.attach}
   and the profiler *chains* to it, so the recorder sees every branch
   whether or not sampling is attached on either side. What remains is
   exactly the safety contract: perf/perf2bolt/BOLT deaths never touched
   the target, and a death inside the replacement transaction rolled back
   to the last committed version — so both runs retire the same
   transactions through the same layouts, byte-identically. *)

module F = Ocolos_util.Fault
module Events = Ocolos_obs.Events
module O = Ocolos_core.Ocolos
module Daemon = Ocolos_core.Daemon
module Supervisor = Ocolos_core.Supervisor
module Proc = Ocolos_proc.Proc
module Workload = Ocolos_workloads.Workload
module Apps = Ocolos_workloads.Apps

type config = {
  step_instrs : int; (* instructions the target advances between ticks *)
  max_ticks : int; (* tick budget for the kill and convergence runs *)
  trace_tx_limit : int; (* finite workload size for the trace runs *)
  drain_instrs : int; (* instruction budget to run a trace run to halt *)
  jump_tables : bool; (* keep jump tables so inject_data is reachable *)
  engine : [ `Reference | `Blocks ]; (* target execution engine *)
  daemon : Daemon.config;
}

(* [regression_tolerance < 0] turns the drift gate into "always re-optimize
   once the amortization interval passes": continuous rounds (C1 -> C2 ->
   ...) happen on the tiny workload without needing an input shift, which is
   what makes the osr_*/gc_*/verify points reachable here. *)
let default_config =
  { step_instrs = 12_000;
    max_ticks = 60;
    trace_tx_limit = 1_500;
    drain_instrs = 50_000_000;
    jump_tables = true;
    engine = `Blocks;
    daemon =
      { Daemon.default_config with
        Daemon.profile_s = 1.0;
        warmup_s = 0.5;
        min_interval_s = 2.0;
        regression_tolerance = -0.5;
        retry_backoff_s = 0.5 } }

type outcome =
  | Verified of {
      death : Supervisor.death;
      survivor_version : int; (* committed version running at death *)
      trace_equal : bool;
      trace_len : int; (* branches recorded in the kill run *)
      terminated : bool; (* both trace runs drained to a halt *)
      cache_ok : bool; (* code caches validated after both drains *)
      convergence : Supervisor.convergence;
    }
  | Not_reached (* the armed point never fired within the tick budget *)

type result = { r_seed : int; r_point : string; r_outcome : outcome }

let verdict r =
  match r.r_outcome with
  | Not_reached -> `Unreached
  | Verified { trace_equal; convergence; terminated; cache_ok; _ } ->
    if
      trace_equal && terminated && cache_ok
      && (match convergence with
         | Supervisor.Converged_replaced _ | Supervisor.Converged_gave_up _ -> true
         | Supervisor.Diverged -> false)
    then `Pass
    else `Fail

let passed r = verdict r = `Pass

let outcome_to_string = function
  | Not_reached -> "not reached"
  | Verified
      { death; survivor_version; trace_equal; trace_len; terminated; cache_ok; convergence }
    ->
    Fmt.str "died at %s hit %d tick %d (C%d live): trace %s (%d branches%s%s), restart %s"
      death.Supervisor.d_point death.Supervisor.d_hit death.Supervisor.d_tick
      survivor_version
      (if trace_equal then "identical" else "DIVERGED")
      trace_len
      (if terminated then "" else ", NOT drained")
      (if cache_ok then "" else ", STALE CODE CACHE")
      (Supervisor.convergence_to_string convergence)

(* The label a failing scenario is reported and archived under. It must be
   self-describing on its own — a --trace-dir directory full of dumps is
   read long after the sweep output scrolled away — so it carries the armed
   point's fault domain, not just the point name (which for points like
   "commit" or "verify" says nothing about which subsystem was hit). *)
let scenario_label r =
  Fmt.str "seed%d-%s-%s" r.r_seed
    (F.domain_of r.r_point)
    (String.map (function '.' -> '_' | c -> c) r.r_point)

let result_to_string r =
  Fmt.str "seed %d %-10s %-22s %s" r.r_seed
    (F.domain_of r.r_point)
    r.r_point (outcome_to_string r.r_outcome)

(* ---- the three runs ---- *)

(* The tiny workload, optionally rebuilt with its jump tables kept (the
   default lowers them away, which leaves BOLT's output with no table data
   and makes the inject_data point unreachable). *)
let tiny_workload cfg ~tx_limit =
  let base = Apps.tiny ~tx_limit () in
  if not cfg.jump_tables then base
  else
    Workload.build ~no_jump_tables:false ~name:"tiny-jt" ~inputs:base.Workload.inputs
      ~nthreads:2 base.Workload.gen

(* A trace-run process: tiny workload, finite, recorder installed before
   attach so every later hook (the profiler's) chains to it. *)
(* Boundary-only frame maps: paused PCs then land mid-block, so OSR has to
   build compensation stubs — which is what makes the osr_stub point (and
   the gc_reap point, which needs residue to die) reachable in a sweep. *)
let ocolos_config ~fault =
  { O.default_config with
    O.fault = Some fault;
    bolt = { O.default_config.O.bolt with Ocolos_bolt.Bolt.exact_frame_maps = false } }

let launch_traced cfg ~seed =
  let w = tiny_workload cfg ~tx_limit:(Some cfg.trace_tx_limit) in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let buf = ref [] in
  proc.Proc.hooks.Proc.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ~cycles ->
        ignore cycles;
        buf := (tid, from_addr, to_addr, kind) :: !buf);
  let fault = F.create ~seed () in
  let oc = O.attach ~config:(ocolos_config ~fault) proc in
  (proc, oc, fault, buf)

(* Advance the target one tick's worth of instructions; tick i is simulated
   second i+1. Instruction driving, never cycle driving — see the module
   comment. *)
let make_step cfg proc i =
  Proc.run ~engine:cfg.engine ~cycle_limit:infinity ~max_instrs:cfg.step_instrs proc;
  float_of_int (i + 1)

let drain cfg proc =
  Proc.run ~engine:cfg.engine ~cycle_limit:infinity ~max_instrs:cfg.drain_instrs proc

(* Everything the equality check compares: the full recorded branch trace
   plus the workload's own end-state summary. *)
type tail = {
  t_trace : (int * int * int * Proc.branch_kind) list;
  t_checksums : int list;
  t_transactions : int;
  t_halted : bool;
  t_cache_ok : bool; (* decoded-block/trace caches validate after the drain *)
}

let finish cfg proc buf =
  drain cfg proc;
  { t_trace = List.rev !buf;
    t_checksums = Workload.checksums proc;
    t_transactions = Proc.transactions proc;
    t_halted = not (Proc.runnable proc);
    t_cache_ok = Proc.validate_code_cache proc }

(* Kill run: die at [point], then run the orphan to termination. Returns the
   death, the version that survived it, and the recorded tail. *)
let kill_run cfg ~seed ~point =
  let proc, oc, fault, buf = launch_traced cfg ~seed in
  let d = Daemon.create ~config:cfg.daemon oc proc in
  match
    Supervisor.kill_at ~fault ~point d ~step:(make_step cfg proc) ~max_ticks:cfg.max_ticks
  with
  | Supervisor.Survived -> None
  | Supervisor.Died death ->
    Events.log "chaos.daemon_killed"
      ~fields:
        [ ("point", Ocolos_obs.Trace.S death.Supervisor.d_point);
          ("hit", Ocolos_obs.Trace.I death.Supervisor.d_hit);
          ("tick", Ocolos_obs.Trace.I death.Supervisor.d_tick);
          ("survivor_version", Ocolos_obs.Trace.I (O.version oc)) ];
    Some (death, O.version oc, finish cfg proc buf)

(* Reference run: same seed, nothing armed. The scheduler hands out quantum
   turns from thread 0 at the start of every [Proc.run] call, so the merged
   branch order is only comparable if both runs chunk execution identically
   — the reference replays the kill run's step schedule exactly
   ([pre_steps] = steps executed before the death tick finished), ticking
   its daemon only until it has committed [version] replacements (the kill
   run's campaigns 1..v were fault-free, so they replay identically; its
   later profiling and rolled-back final transaction shift cycle time
   only). Then the daemon is stopped cold and the target drains. *)
let reference_run cfg ~seed ~version ~pre_steps =
  let proc, oc, _fault, buf = launch_traced cfg ~seed in
  let d = Daemon.create ~config:cfg.daemon oc proc in
  for i = 0 to pre_steps - 1 do
    let now_s = make_step cfg proc i in
    if O.version oc < version then ignore (Daemon.tick d ~now_s)
  done;
  if O.version oc <> version then None else Some (finish cfg proc buf)

(* Convergence run: endless workload, die at [point], restart against the
   live process ({!Ocolos.reattach} under the hood, the old daemon's guard
   carried across like an on-disk sidecar), drive to a terminal outcome. *)
let convergence_run cfg ~seed ~point =
  let w = tiny_workload cfg ~tx_limit:None in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let fault = F.create ~seed () in
  let oc = O.attach ~config:(ocolos_config ~fault) proc in
  let d = Daemon.create ~config:cfg.daemon oc proc in
  match
    Supervisor.kill_at ~fault ~point d ~step:(make_step cfg proc) ~max_ticks:cfg.max_ticks
  with
  | Supervisor.Survived -> None
  | Supervisor.Died _ ->
    let d' = Supervisor.restart ~config:cfg.daemon ~guard:(Daemon.guard d) proc in
    Events.log "chaos.daemon_restarted"
      ~fields:[ ("point", Ocolos_obs.Trace.S point); ("seed", Ocolos_obs.Trace.I seed) ];
    Some
      (Supervisor.run_to_convergence d' ~step:(make_step cfg proc)
         ~max_ticks:cfg.max_ticks)

(* ---- scenarios and sweeps ---- *)

(* References are shared: one per (seed, survivor version, step schedule),
   not per point. *)
type ref_cache = (int * int * int, tail option) Hashtbl.t

let new_cache () : ref_cache = Hashtbl.create 4

let scenario ?(config = default_config) ?cache ~seed ~point () =
  let cache = match cache with Some c -> c | None -> new_cache () in
  match kill_run config ~seed ~point with
  | None -> { r_seed = seed; r_point = point; r_outcome = Not_reached }
  | Some (death, survivor_version, killed_tail) ->
    let pre_steps = death.Supervisor.d_tick + 1 in
    let reference =
      match Hashtbl.find_opt cache (seed, survivor_version, pre_steps) with
      | Some r -> r
      | None ->
        let r = reference_run config ~seed ~version:survivor_version ~pre_steps in
        Hashtbl.add cache (seed, survivor_version, pre_steps) r;
        r
    in
    let trace_equal, terminated, cache_ok =
      match reference with
      | None -> (false, false, false) (* reference could not reach the survivor version *)
      | Some ref_tail ->
        ( killed_tail.t_trace = ref_tail.t_trace
          && killed_tail.t_checksums = ref_tail.t_checksums
          && killed_tail.t_transactions = ref_tail.t_transactions,
          killed_tail.t_halted && ref_tail.t_halted,
          killed_tail.t_cache_ok && ref_tail.t_cache_ok )
    in
    let convergence =
      match convergence_run config ~seed ~point with
      | Some c -> c
      | None -> Supervisor.Diverged (* died in the trace run but not here *)
    in
    Ocolos_obs.Metrics.count "ocolos_chaos_scenarios_total" 1;
    if not trace_equal then Ocolos_obs.Metrics.count "ocolos_chaos_divergence_total" 1;
    { r_seed = seed;
      r_point = point;
      r_outcome =
        Verified
          { death;
            survivor_version;
            trace_equal;
            trace_len = List.length killed_tail.t_trace;
            terminated;
            cache_ok;
            convergence } }

(* ---- fleet chaos ---- *)

(* Kill the *fleet* daemon mid-campaign and verify recovery. A staged
   rollout dies between replicas (e.g. kill "commit" on its (K+1)-th hit —
   the first post-canary promotion commit), stranding a mixed C_i/C_{i+1}
   fleet. The restart must detect the mix, revert the optimized replicas to
   C0, and drive a fresh homogeneous campaign to a terminal outcome. The
   fleet is deliberately heterogeneous (input "a" on even replicas, "b" on
   odd) so the aggregated profile is a genuine cross-replica union. *)

type fleet_outcome = {
  fo_death : Supervisor.death;
  fo_mixed_at_death : bool; (* did the kill strand a mixed fleet? *)
  fo_reverted : int list; (* replicas reverted to C0 on reattach *)
  fo_convergence : Supervisor.convergence;
  fo_final_versions : int list;
  fo_final_converged : bool;
}

type fleet_result = Fleet_verified of fleet_outcome | Fleet_not_reached

let fleet_passed = function
  | Fleet_not_reached -> false
  | Fleet_verified o -> (
    o.fo_final_converged
    && match o.fo_convergence with
       | Supervisor.Converged_replaced _ | Supervisor.Converged_gave_up _ -> true
       | Supervisor.Diverged -> false)

let fleet_result_to_string ~seed ~point = function
  | Fleet_not_reached -> Fmt.str "fleet seed %d %-22s not reached" seed point
  | Fleet_verified o ->
    Fmt.str
      "fleet seed %d %-10s %-22s died hit %d tick %d (%s), reverted [%s], restart %s -> [%s] %s"
      seed (F.domain_of point) point o.fo_death.Supervisor.d_hit
      o.fo_death.Supervisor.d_tick
      (if o.fo_mixed_at_death then "MIXED" else "homogeneous")
      (String.concat ";" (List.map string_of_int o.fo_reverted))
      (Supervisor.convergence_to_string o.fo_convergence)
      (String.concat ";" (List.map string_of_int o.fo_final_versions))
      (if o.fo_final_converged then "(converged)" else "(STILL MIXED)")

let fleet_scenario ?(config = default_config) ?(replicas = 4) ?schedule ~seed ~point () =
  let module Fleet = Ocolos_core.Fleet in
  let w = tiny_workload config ~tx_limit:None in
  (* One fault registry across the whole fleet: an Nth schedule counts hits
     fleet-wide, which is what lets a kill land between two replicas'
     commits. *)
  let fault = F.create ~seed () in
  let ocfg = ocolos_config ~fault in
  (* Mirror the daemon's continuous-replacement tolerance: BOLT on these
     tiny inputs can land IPC-neutral-or-worse layouts, and a canary that
     always rolls back would never put a kill point mid-promotion. The
     permissive verify thresholds keep rollouts flowing so fault schedules
     can strand genuinely mixed fleets. *)
  let fcfg =
    { Fleet.default_config with
      Fleet.daemon = config.daemon;
      max_ipc_drop = 1.0;
      max_p99_rise = infinity }
  in
  let procs =
    Array.init replicas (fun i ->
        Workload.launch ~seed:(seed + i) w
          ~input:(Workload.find_input w (if i mod 2 = 0 then "a" else "b")))
  in
  let fleet = Fleet.create ~config:fcfg ~ocolos_config:ocfg procs in
  let step i =
    Array.iter
      (fun p ->
        Proc.run ~engine:config.engine ~cycle_limit:infinity ~max_instrs:config.step_instrs p)
      procs;
    float_of_int (i + 1)
  in
  match
    Supervisor.kill_fleet_at ~fault ~point ?schedule fleet ~step ~max_ticks:config.max_ticks
  with
  | Supervisor.Survived -> Fleet_not_reached
  | Supervisor.Died death ->
    let mixed_at_death = Fleet.mixed fleet in
    Events.log "chaos.daemon_killed"
      ~fields:
        [ ("point", Ocolos_obs.Trace.S death.Supervisor.d_point);
          ("hit", Ocolos_obs.Trace.I death.Supervisor.d_hit);
          ("tick", Ocolos_obs.Trace.I death.Supervisor.d_tick);
          ("mixed", Ocolos_obs.Trace.B mixed_at_death) ];
    let fleet' =
      Supervisor.restart_fleet ~config:fcfg ~ocolos_config:ocfg
        ~guard:(Fleet.guard fleet) procs
    in
    Events.log "chaos.daemon_restarted"
      ~fields:
        [ ("point", Ocolos_obs.Trace.S point);
          ("reverted",
           Ocolos_obs.Trace.S
             (String.concat ";"
                (List.map string_of_int (Fleet.reverted_on_reattach fleet')))) ];
    let convergence =
      Supervisor.run_fleet_to_convergence fleet' ~step ~max_ticks:config.max_ticks
    in
    Fleet_verified
      { fo_death = death;
        fo_mixed_at_death = mixed_at_death;
        fo_reverted = Fleet.reverted_on_reattach fleet';
        fo_convergence = convergence;
        fo_final_versions = Fleet.versions fleet';
        fo_final_converged = Fleet.converged fleet' }

(* ---- miscompile containment chaos ---- *)

(* The bolt.miscompile points are survivable, not lethal: arming one makes
   {!Ocolos.run_bolt} hand a silently corrupted result to the daemon, and
   the property under test is that the two containment tiers stop it — a
   Tier-1 validation rejection (campaign aborted before [Txn.replace_code],
   offending functions quarantined, [validate.reject] events logged) or a
   Tier-2 shadow revert (the commit undone within the same tick, breaker
   tripped) — with the surviving target's taken-branch trace byte-identical
   to an uninterrupted run of the version that survived. A corrupted
   version that commits and stays committed is an escape. *)

module Miscompile = Ocolos_bolt.Miscompile

let miscompile_points = Miscompile.points

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Capture the structured event log emitted during [f] (the classification
   below reads bolt.miscompile.applied and validate.reject records from
   it), restoring whatever ambient log the caller had installed. *)
let with_events f =
  let prev = Events.installed () in
  let log = Events.create () in
  Events.install log;
  Fun.protect
    ~finally:(fun () ->
      match prev with Some l -> Events.install l | None -> Events.uninstall ())
    (fun () ->
      let r = f () in
      (r, log))

let count_events log ty = List.length (List.filter (fun e -> e.Events.e_type = ty) (Events.events log))

(* Total mutations the armed point actually applied, summed over the
   bolt.miscompile.applied events it logged. 0 means the corruption found
   no applicable site (e.g. drop_block on single-block functions), so the
   handed-over result is valid and any commit of it is benign. *)
let mc_mutations log point =
  List.fold_left
    (fun acc (e : Events.event) ->
      if
        e.Events.e_type = "bolt.miscompile.applied"
        && List.mem ("point", Ocolos_obs.Trace.S point) e.Events.e_fields
      then
        acc
        + (match List.assoc_opt "mutations" e.Events.e_fields with
          | Some (Ocolos_obs.Trace.I n) -> n
          | _ -> 0)
      else acc)
    0 (Events.events log)

(* Tick the daemon until the corrupted campaign reaches a containment
   terminal: a validation abort, a shadow revert, or — the escape — a
   replacement that sticks. Returns the terminal and the number of steps
   executed (the reference run's [pre_steps]). *)
let mc_drive cfg d fault ~point ~step =
  let rec loop i =
    if i >= cfg.max_ticks then (`None, i)
    else
      let now_s = step i in
      match Daemon.tick d ~now_s with
      | Daemon.Campaign_aborted reason
        when String.starts_with ~prefix:"validation rejected" reason ->
        (`Rejected reason, i + 1)
      | Daemon.Reverted { reason } -> (`Reverted reason, i + 1)
      | Daemon.Replaced stats when F.fired fault point > 0 ->
        (`Committed stats.O.version, i + 1)
      | _ -> loop (i + 1)
  in
  loop 0

type mc_outcome =
  | Mc_contained of {
      mc_tier : [ `Validate | `Shadow ];
      mc_reason : string;
      mc_mutations : int;
      mc_quarantined : int list; (* fids the Tier-1 rejection quarantined *)
      mc_reject_events : int; (* validate.reject events recorded *)
      mc_breaker_tripped : bool; (* breaker left Closed (Tier-2 terminal) *)
      mc_survivor_version : int; (* committed version running afterwards *)
      mc_trace_equal : bool;
      mc_terminated : bool;
      mc_cache_ok : bool;
      mc_convergence : Supervisor.convergence;
    }
  | Mc_escaped of { mc_version : int; mc_mutations : int }
  | Mc_benign (* the point fired but found no applicable corruption site *)
  | Mc_not_reached (* no campaign ran the point within the tick budget *)

type mc_result = { mc_seed : int; mc_point : string; mc_outcome : mc_outcome }

let mc_verdict r =
  match r.mc_outcome with
  | Mc_not_reached | Mc_benign -> `Unreached
  | Mc_escaped _ -> `Fail
  | Mc_contained o ->
    let tier_ok =
      match o.mc_tier with
      | `Validate -> o.mc_quarantined <> [] && o.mc_reject_events > 0
      | `Shadow -> o.mc_breaker_tripped
    in
    let conv_ok =
      match o.mc_convergence with
      | Supervisor.Converged_replaced _ | Supervisor.Converged_gave_up _ -> true
      | Supervisor.Diverged -> false
    in
    if tier_ok && o.mc_trace_equal && o.mc_terminated && o.mc_cache_ok && conv_ok then
      `Pass
    else `Fail

let mc_passed r = mc_verdict r = `Pass

let mc_outcome_to_string = function
  | Mc_not_reached -> "not reached"
  | Mc_benign -> "benign (0 mutations)"
  | Mc_escaped { mc_version; mc_mutations } ->
    Fmt.str "ESCAPED: %d mutations committed as C%d" mc_mutations mc_version
  | Mc_contained o ->
    Fmt.str "%s (%s; %d mutations%s%s, C%d live): trace %s%s%s, then %s"
      (match o.mc_tier with
      | `Validate -> "rejected pre-commit"
      | `Shadow -> "reverted post-commit")
      o.mc_reason o.mc_mutations
      (match o.mc_quarantined with
      | [] -> ""
      | fids ->
        Fmt.str ", quarantined [%s]" (String.concat ";" (List.map string_of_int fids)))
      (if o.mc_breaker_tripped then ", breaker tripped" else "")
      o.mc_survivor_version
      (if o.mc_trace_equal then "identical" else "DIVERGED")
      (if o.mc_terminated then "" else ", NOT drained")
      (if o.mc_cache_ok then "" else ", STALE CODE CACHE")
      (Supervisor.convergence_to_string o.mc_convergence)

let mc_result_to_string r =
  Fmt.str "seed %d %-15s %-31s %s" r.mc_seed
    (F.domain_of r.mc_point)
    r.mc_point
    (mc_outcome_to_string r.mc_outcome)

(* Finite traced run under the armed corruption: drive to the containment
   terminal, record guard state, stop the daemon cold, drain the target. *)
let mc_trace_run cfg ~seed ~point =
  let proc, oc, fault, buf = launch_traced cfg ~seed in
  F.arm fault point (F.Nth 1);
  let d = Daemon.create ~config:cfg.daemon oc proc in
  let (terminal, pre_steps), log =
    with_events (fun () -> mc_drive cfg d fault ~point ~step:(make_step cfg proc))
  in
  let quarantined = Daemon.quarantined d in
  let breaker_tripped = Daemon.breaker_state d <> Ocolos_core.Guard.Closed in
  let mutations = mc_mutations log point in
  let reject_events = count_events log "validate.reject" in
  ( terminal,
    pre_steps,
    O.version oc,
    mutations,
    quarantined,
    reject_events,
    breaker_tripped,
    F.fired fault point,
    finish cfg proc buf )

(* Endless run: reach the same containment terminal, then keep driving the
   *same* daemon (guard memory intact: the failed campaign degraded the
   next tier, the quarantine excludes the rejected functions, a tripped
   breaker may refuse outright) until it commits a valid replacement or
   cleanly gives up. *)
let mc_convergence_run cfg ~seed ~point =
  let w = tiny_workload cfg ~tx_limit:None in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let fault = F.create ~seed () in
  F.arm fault point (F.Nth 1);
  let oc = O.attach ~config:(ocolos_config ~fault) proc in
  let d = Daemon.create ~config:cfg.daemon oc proc in
  let (terminal, ticks), _log =
    with_events (fun () -> mc_drive cfg d fault ~point ~step:(make_step cfg proc))
  in
  match terminal with
  | `None | `Committed _ -> None
  | `Rejected _ | `Reverted _ ->
    Some
      (Supervisor.run_to_convergence d
         ~step:(fun i -> make_step cfg proc (ticks + i))
         ~max_ticks:cfg.max_ticks)

let miscompile_scenario ?(config = default_config) ?cache ~seed ~point () =
  let cache = match cache with Some c -> c | None -> new_cache () in
  let ( terminal,
        pre_steps,
        survivor_version,
        mutations,
        quarantined,
        reject_events,
        breaker_tripped,
        fired,
        tail ) =
    mc_trace_run config ~seed ~point
  in
  let outcome =
    match terminal with
    | `None when fired = 0 -> Mc_not_reached
    | (`None | `Committed _) when mutations = 0 -> Mc_benign
    | `None -> Mc_escaped { mc_version = survivor_version; mc_mutations = mutations }
    | `Committed v -> Mc_escaped { mc_version = v; mc_mutations = mutations }
    | (`Rejected reason | `Reverted reason) as t ->
      let tier = match t with `Rejected _ -> `Validate | `Reverted _ -> `Shadow in
      let reference =
        match Hashtbl.find_opt cache (seed, survivor_version, pre_steps) with
        | Some r -> r
        | None ->
          let r = reference_run config ~seed ~version:survivor_version ~pre_steps in
          Hashtbl.add cache (seed, survivor_version, pre_steps) r;
          r
      in
      let trace_equal, terminated, cache_ok =
        match reference with
        | None -> (false, false, false)
        | Some ref_tail ->
          ( tail.t_trace = ref_tail.t_trace
            && tail.t_checksums = ref_tail.t_checksums
            && tail.t_transactions = ref_tail.t_transactions,
            tail.t_halted && ref_tail.t_halted,
            tail.t_cache_ok && ref_tail.t_cache_ok )
      in
      let convergence =
        match mc_convergence_run config ~seed ~point with
        | Some c -> c
        | None -> Supervisor.Diverged (* contained in the trace run but not here *)
      in
      Mc_contained
        { mc_tier = tier;
          mc_reason = reason;
          mc_mutations = mutations;
          mc_quarantined = quarantined;
          mc_reject_events = reject_events;
          mc_breaker_tripped = breaker_tripped;
          mc_survivor_version = survivor_version;
          mc_trace_equal = trace_equal;
          mc_terminated = terminated;
          mc_cache_ok = cache_ok;
          mc_convergence = convergence }
  in
  Ocolos_obs.Metrics.count "ocolos_chaos_miscompile_scenarios_total" 1;
  (match outcome with
  | Mc_escaped _ -> Ocolos_obs.Metrics.count "ocolos_chaos_miscompile_escapes_total" 1
  | _ -> ());
  { mc_seed = seed; mc_point = point; mc_outcome = outcome }

(* ---- fleet miscompile chaos ---- *)

type mc_fleet_result =
  | Mc_fleet_contained of {
      mf_tier : [ `Validate | `Shadow ];
      mf_reason : string;
      mf_mutations : int;
      mf_mixed_after : bool; (* was the fleet mixed right after containment? *)
      mf_versions : int list; (* per-replica versions at the end *)
      mf_convergence : Supervisor.convergence;
      mf_converged : bool; (* final fleet homogeneous *)
    }
  | Mc_fleet_escaped of { mf_versions : int list; mf_mutations : int }
  | Mc_fleet_not_reached (* never fired, or fired with no applicable site *)

let mc_fleet_passed = function
  | Mc_fleet_not_reached -> false
  | Mc_fleet_escaped _ -> false
  | Mc_fleet_contained o -> (
    (not o.mf_mixed_after) && o.mf_converged
    && match o.mf_convergence with
       | Supervisor.Converged_replaced _ | Supervisor.Converged_gave_up _ -> true
       | Supervisor.Diverged -> false)

let mc_fleet_result_to_string ~seed ~point = function
  | Mc_fleet_not_reached -> Fmt.str "fleet seed %d %-31s not reached" seed point
  | Mc_fleet_escaped { mf_versions; mf_mutations } ->
    Fmt.str "fleet seed %d %-31s ESCAPED: %d mutations live on [%s]" seed point
      mf_mutations
      (String.concat ";" (List.map string_of_int mf_versions))
  | Mc_fleet_contained o ->
    Fmt.str "fleet seed %d %-15s %-31s %s (%s; %d mutations, %s), then %s -> [%s] %s"
      seed (F.domain_of point) point
      (match o.mf_tier with
      | `Validate -> "rejected pre-commit"
      | `Shadow -> "reverted post-commit")
      o.mf_reason o.mf_mutations
      (if o.mf_mixed_after then "MIXED" else "homogeneous")
      (Supervisor.convergence_to_string o.mf_convergence)
      (String.concat ";" (List.map string_of_int o.mf_versions))
      (if o.mf_converged then "(converged)" else "(STILL MIXED)")

let miscompile_fleet_scenario ?(config = default_config) ?(replicas = 4) ~seed ~point ()
    =
  let module Fleet = Ocolos_core.Fleet in
  let w = tiny_workload config ~tx_limit:None in
  let fault = F.create ~seed () in
  F.arm fault point (F.Nth 1);
  let ocfg = ocolos_config ~fault in
  let fcfg =
    { Fleet.default_config with
      Fleet.daemon = config.daemon;
      max_ipc_drop = 1.0;
      max_p99_rise = infinity }
  in
  let procs =
    Array.init replicas (fun i ->
        Workload.launch ~seed:(seed + i) w
          ~input:(Workload.find_input w (if i mod 2 = 0 then "a" else "b")))
  in
  let fleet = Fleet.create ~config:fcfg ~ocolos_config:ocfg procs in
  let step i =
    Array.iter
      (fun p ->
        Proc.run ~engine:config.engine ~cycle_limit:infinity ~max_instrs:config.step_instrs p)
      procs;
    float_of_int (i + 1)
  in
  let drive () =
    let rec loop i =
      if i >= config.max_ticks then (`None, i)
      else
        let now_s = step i in
        match Fleet.tick fleet ~now_s with
        | Fleet.Campaign_aborted reason
          when String.starts_with ~prefix:"validation rejected" reason ->
          (`Rejected reason, i + 1)
        | Fleet.Rolled_back { reason; _ } when contains_sub reason "shadow divergence"
          ->
          (`Reverted reason, i + 1)
        | Fleet.Promoted { version; _ } when F.fired fault point > 0 ->
          (`Committed version, i + 1)
        | _ -> loop (i + 1)
    in
    loop 0
  in
  let (terminal, ticks), log = with_events drive in
  let mutations = mc_mutations log point in
  match terminal with
  | `None when F.fired fault point = 0 -> Mc_fleet_not_reached
  | (`None | `Committed _) when mutations = 0 -> Mc_fleet_not_reached
  | `None | `Committed _ ->
    Mc_fleet_escaped { mf_versions = Fleet.versions fleet; mf_mutations = mutations }
  | (`Rejected reason | `Reverted reason) as t ->
    let tier = match t with `Rejected _ -> `Validate | `Reverted _ -> `Shadow in
    let mixed_after = Fleet.mixed fleet in
    let convergence =
      Supervisor.run_fleet_to_convergence fleet
        ~step:(fun i -> step (ticks + i))
        ~max_ticks:config.max_ticks
    in
    Mc_fleet_contained
      { mf_tier = tier;
        mf_reason = reason;
        mf_mutations = mutations;
        mf_mixed_after = mixed_after;
        mf_versions = Fleet.versions fleet;
        mf_convergence = convergence;
        mf_converged = Fleet.converged fleet }

let miscompile_sweep ?(config = default_config) ?(seeds = [ 1; 2 ])
    ?(points = miscompile_points) () =
  List.concat_map
    (fun seed ->
      let cache = new_cache () in
      List.map (fun point -> miscompile_scenario ~config ~cache ~seed ~point ()) points)
    seeds

let default_points = O.fault_catalog
let default_seeds = [ 1; 2 ]

let sweep ?(config = default_config) ?(seeds = default_seeds) ?(points = default_points) ()
    =
  List.concat_map
    (fun seed ->
      let cache = new_cache () in
      List.map (fun point -> scenario ~config ~cache ~seed ~point ()) points)
    seeds
