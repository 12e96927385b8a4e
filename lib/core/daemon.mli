(** The controller's gate policy: decides {e when} to (re-)optimize a
    managed process. Combines the DMon-style stage-1 TopDown gate (paper
    Section V), the amortization rule of Section VI-C3, and drift detection
    for continuous mode (Section IV-C): a throughput regression relative to
    the post-optimization steady state — a stale layout after an input
    shift — triggers re-profiling and replacement of C_i by C_{i+1}.

    The campaign state machine acting on the gate is {!Fleet}; a
    single-process campaign is [Fleet.create [| proc |]]. {!config} is the
    policy record it reads as [Fleet.config.daemon]: the gate thresholds,
    the profile window and warmup, the per-replica retry budget a fleet
    spends on a rolled-back {!Txn.replace_code} before its staged rollback,
    and the Tier-2 shadow sampling rate. *)

type config = {
  frontend_threshold : float;
  regression_tolerance : float;
  min_interval_s : float;
  profile_s : float;
  warmup_s : float;
  max_retries : int;
      (** extra replacement attempts per replica after its transaction
          rolls back *)
  retry_backoff_s : float;
      (** backoff before the first retry; doubles on each further retry *)
  shadow_every : int;
      (** Tier-2 sampling: shadow-check every Nth commit, counting from the
          first ([1] checks all, the default; [0] disables the shadow) *)
}

val default_config : config

(** Pure monitoring decision: the reason to start (re-)profiling now, if
    any. Exposed so the gate boundaries — a regression exactly at
    [regression_tolerance], the [>=] amortization gate at exactly
    [min_interval_s], the [>=] front-end gate — are directly testable. *)
val decide :
  config ->
  replacements:int ->
  version:int ->
  now_s:float ->
  last_replacement_s:float ->
  tps:float ->
  best_tps:float ->
  frontend:float ->
  string option
