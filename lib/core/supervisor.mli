(** Crash-recovery harness: simulated daemon death at an armed fault point,
    restart against the live replicas, and convergence checking — one
    harness for a single process (a one-replica {!Fleet}) and for N.

    The safety contract (paper Section VII "can fail at any point"): a
    daemon death never corrupts a replica. Perf kills detach the sampling
    hook before surfacing; perf2bolt/BOLT kills abort background work that
    never touched the target; kills inside the stop-the-world transaction
    are rolled back and the target resumed by {!Txn} before the exception
    escapes. At death each replica runs exactly its last committed version
    — which is what the chaos property test asserts byte-for-byte. The one
    new failure mode with N > 1: a death between replicas of a staged
    rollout strands a {e mixed} fleet, which {!restart} homogenizes. *)

type death = {
  d_point : string;  (** the lethally armed point that fired *)
  d_hit : int;  (** hit count at which it fired *)
  d_tick : int;  (** tick index during which the daemon died *)
}

type kill_outcome = Died of death | Survived  (** point never reached *)

(** [kill_at ~fault ~point fleet ~step ~max_ticks] arms [point] lethally
    ([schedule] defaults to [Nth 1]) and drives {!Fleet.tick} — [step i]
    advances the replicas and returns the simulated time for tick [i] —
    until {!Ocolos_util.Fault.Killed} escapes a tick or the tick budget is
    spent. The point is disarmed on exit either way. A death is one
    [supervisor.daemon_died] emit — trace instant, event and
    [ocolos_supervisor_deaths_total] — with point, hit, tick and mixed. *)
val kill_at :
  fault:Ocolos_util.Fault.t ->
  point:string ->
  ?schedule:Ocolos_util.Fault.schedule ->
  Fleet.t ->
  step:(int -> float) ->
  max_ticks:int ->
  kill_outcome

(** Stand up a replacement controller over the live replicas
    ({!Fleet.reattach}: per-replica {!Ocolos.reattach}, plus revert-to-C0
    of every optimized replica when the fleet is layout-mixed); [guard]
    optionally carries the dead daemon's quarantine/breaker memory across
    the restart (as an on-disk sidecar would). *)
val restart :
  ?config:Fleet.config ->
  ?ocolos_config:Ocolos.config ->
  ?guard:Guard.t ->
  Ocolos_proc.Proc.t array ->
  Fleet.t

type convergence =
  | Converged_replaced of { version : int; ticks : int }
  | Converged_gave_up of { reason : string; ticks : int }
      (** terminal no-rollout outcome: staged rollback (retry budget spent,
          shadow divergence, failed verdict), campaign aborted on a
          pipeline fault, watchdog or validation rejection, or breaker
          refusal *)
  | Diverged  (** neither outcome within the tick budget *)

val convergence_to_string : convergence -> string

(** Drive the fleet until a rollout completes ([Converged_replaced]) or the
    campaign terminally fails ([Converged_gave_up]). Either way the fleet
    ends homogeneous. *)
val run_to_convergence :
  Fleet.t -> step:(int -> float) -> max_ticks:int -> convergence
