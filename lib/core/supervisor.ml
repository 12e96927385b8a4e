(* Crash-recovery harness: simulated daemon death and restart.

   [kill_at] arms a fault point *lethally* ([Fault.kill]) and drives the
   campaign controller's tick loop until [Fault.Killed] escapes — the
   moment the OCOLOS daemon process dies. By construction a replica is never
   corrupted by a death: perf kills detach the sampling hook before the
   exception surfaces, perf2bolt/BOLT kills happen in background work that
   never touched the target, and kills inside the stop-the-world
   transaction are rolled back (and the target resumed) by {!Txn} before
   the exception re-raises. So at death every replica runs exactly the code
   version it last committed — though a death between two replicas of a
   staged rollout can leave the fleet mixed.

   [restart] then stands up a fresh controller over the live replicas via
   {!Fleet.reattach}, optionally inheriting the dead daemon's {!Guard}
   (quarantine and breaker memory survive the way an on-disk sidecar
   would). [run_to_convergence] drives it until a rollout completes or the
   campaign cleanly gives up — the restart contract the chaos property test
   asserts for every fault point, for one replica and for many. *)

type death = {
  d_point : string; (* the lethally armed point that fired *)
  d_hit : int; (* hit count at which it fired *)
  d_tick : int; (* tick index during which the daemon died *)
}

type kill_outcome = Died of death | Survived (* point never reached *)

let kill_at ~(fault : Ocolos_util.Fault.t) ~point ?(schedule = Ocolos_util.Fault.Nth 1)
    (fleet : Fleet.t) ~step ~max_ticks =
  Ocolos_util.Fault.kill fault point schedule;
  let rec loop i =
    if i >= max_ticks then begin
      Ocolos_util.Fault.disarm fault point;
      Survived
    end
    else
      let now_s = step i in
      match Fleet.tick fleet ~now_s with
      | _ -> loop (i + 1)
      | exception Ocolos_util.Fault.Killed (p, hit) ->
        Ocolos_util.Fault.disarm fault point;
        Ocolos_obs.Events.emit "supervisor.daemon_died"
          [ ("point", Ocolos_obs.Trace.S p);
            ("hit", Ocolos_obs.Trace.I hit);
            ("tick", Ocolos_obs.Trace.I i);
            ("mixed", Ocolos_obs.Trace.B (Fleet.mixed fleet)) ];
        Died { d_point = p; d_hit = hit; d_tick = i }
  in
  loop 0

let restart ?config ?ocolos_config ?guard procs =
  Ocolos_obs.Metrics.count "ocolos_supervisor_restarts_total" 1;
  Fleet.reattach ?config ?ocolos_config ?guard procs

type convergence =
  | Converged_replaced of { version : int; ticks : int }
  | Converged_gave_up of { reason : string; ticks : int }
  | Diverged (* neither outcome within the tick budget *)

let convergence_to_string = function
  | Converged_replaced { version; ticks } ->
    Fmt.str "replaced (C%d after %d ticks)" version ticks
  | Converged_gave_up { reason; ticks } ->
    Fmt.str "gave up (%s after %d ticks)" reason ticks
  | Diverged -> "diverged"

(* Terminal outcomes: a completed rollout converges; a staged rollback
   (retry budget spent, shadow divergence, or a failed verdict), a campaign
   abort (pipeline fault, watchdog, validation rejection) or a breaker
   refusal is a clean give-up — the fleet is homogeneous on the old version
   in all three. *)
let run_to_convergence (fleet : Fleet.t) ~step ~max_ticks =
  let rec loop i =
    if i >= max_ticks then Diverged
    else
      let now_s = step i in
      match Fleet.tick fleet ~now_s with
      | Fleet.Promoted { version; _ } -> Converged_replaced { version; ticks = i + 1 }
      | Fleet.Rolled_back { reason; _ } -> Converged_gave_up { reason; ticks = i + 1 }
      | Fleet.Campaign_aborted reason -> Converged_gave_up { reason; ticks = i + 1 }
      | Fleet.Breaker_open { until_s } ->
        Converged_gave_up { reason = Fmt.str "breaker open until %.1fs" until_s; ticks = i + 1 }
      | Fleet.Idle | Fleet.Started_profiling _ | Fleet.Canary_started _ -> loop (i + 1)
  in
  loop 0
