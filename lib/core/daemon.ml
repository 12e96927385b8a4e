(* The controller's gate policy.

   Decides *when* to (re-)optimize a managed process, combining the paper's
   pieces: the DMon-style stage-1 TopDown gate (only front-end-bound
   processes are worth optimizing, Section V), the amortization rule (run
   at least long enough to win back what replacement cost, Section VI-C3),
   and drift detection for continuous mode (Section IV-C): when throughput
   degrades relative to the post-optimization steady state — e.g. the input
   mix shifted and the layout went stale — it re-profiles and replaces
   C_i with C_{i+1}.

   The state machine that acts on these decisions is {!Fleet}; a
   single-process campaign is a one-replica fleet. This module keeps only
   the policy record the fleet reads (gate thresholds, profile window,
   retry budget, shadow sampling) and the pure gate itself. *)

type config = {
  frontend_threshold : float; (* stage-1 gate on TopDown front-end fraction *)
  regression_tolerance : float; (* re-optimize when tps < (1 - tol) * best *)
  min_interval_s : float; (* amortization guard between replacements *)
  profile_s : float; (* LBR profiling duration per optimization *)
  warmup_s : float; (* ignore ticks before this *)
  max_retries : int; (* extra replacement attempts per replica after a rollback *)
  retry_backoff_s : float; (* backoff before the first retry; doubles per retry *)
  shadow_every : int; (* shadow-check every Nth commit (1 = all, 0 = never) *)
}

let default_config =
  { frontend_threshold = 0.15;
    regression_tolerance = 0.12;
    min_interval_s = 10.0;
    profile_s = 2.0;
    warmup_s = 1.0;
    max_retries = 3;
    retry_backoff_s = 1.0;
    shadow_every = 1 }

(* Pure monitoring decision: should a (re-)profile start now? Exposed so the
   boundary conditions — regression exactly at tolerance, the >= amortization
   gate, the >= front-end gate — are directly testable. *)
let decide config ~replacements ~version ~now_s ~last_replacement_s ~tps ~best_tps ~frontend =
  (* The amortization gate applies to every campaign, including the first:
     a given-up campaign re-arms [last_replacement_s], and without this
     gate the [replacements = 0] branch would re-enter profiling on the
     very next tick, looping profile/rollback/give-up back to back.
     Fresh controllers start with [last_replacement_s = neg_infinity], so the
     first-ever profile is never delayed. *)
  if now_s -. last_replacement_s < config.min_interval_s then None
  else if replacements = 0 then
    if frontend >= config.frontend_threshold then
      Some
        (Fmt.str "front-end bound (%.0f%% >= %.0f%%)" (100.0 *. frontend)
           (100.0 *. config.frontend_threshold))
    else None
  else if tps < (1.0 -. config.regression_tolerance) *. best_tps then
    Some
      (Fmt.str "throughput regressed to %.0f (best since C%d: %.0f) — stale layout" tps
         version best_tps)
  else None
