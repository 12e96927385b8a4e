(** Fleet rollout driver: N replicas under open-loop traffic.

    Launches [replicas] copies of a workload (inputs assigned round-robin,
    so a fleet can serve a heterogeneous mix), attaches one
    {!Ocolos_core.Fleet} campaign across them, and drives everything on the
    simulated wall clock in one-second windows. Each replica gets its own
    {!Ocolos_workloads.Openloop} client (Poisson arrivals at
    [arrival_rate], seeded per replica); the fleet's latency probe reads
    each client's live p99, so canary verification sees the same latency
    the report does.

    Stop-the-world pauses are charged for real: after every fleet tick the
    driver drains {!Ocolos_core.Fleet.take_pause_debt} and stalls the
    replica for that many simulated seconds, so a replacement (or staged
    rollback) empties a slice of serving capacity and the open-loop queue
    turns it into a p99 spike — the load balancer's view of a rollout. *)

type replica_report = {
  fr_id : int;
  fr_input : string;
  fr_version : int;  (** code version at the end of the run *)
  fr_transactions : int;
  fr_matched : int;  (** open-loop requests served *)
  fr_p50 : float;
  fr_p99 : float;
  fr_queue_peak : int;  (** deepest open-loop queue observed *)
}

type report = {
  fd_replicas : replica_report list;
  fd_actions : (int * Ocolos_core.Fleet.action) list;
      (** non-idle fleet actions, by tick index *)
  fd_fleet_p50 : float;  (** percentiles over the merged latency stream *)
  fd_fleet_p99 : float;
  fd_versions : int list;
  fd_converged : bool;
  fd_rollouts : int;
  fd_rollbacks : int;
}

val report_to_string : report -> string

(** Run a fleet campaign to [ticks] simulated seconds. [config]'s latency
    probe is replaced by the driver's own (it owns the traffic model);
    everything else in it is respected. Inputs are workload input names,
    dealt round-robin across replicas. With [health], every tick also folds
    one per-version window per replica, with its per-function front-end
    attribution, into that accumulator; the run itself is unchanged.
    Returns the report and the fleet (still attached to live replicas) for
    further inspection. *)
val run :
  ?replicas:int ->
  ?seed:int ->
  ?ticks:int ->
  ?arrival_rate:float ->
  ?inputs:string list ->
  ?config:Ocolos_core.Fleet.config ->
  ?ocolos_config:Ocolos_core.Ocolos.config ->
  ?workload:Ocolos_workloads.Workload.t ->
  ?health:Ocolos_obs.Layout_health.t ->
  unit ->
  report * Ocolos_core.Fleet.t
