(** The gated optimize step: the one place that decides whether a BOLT
    result may reach a live process. Every driver — the {!Fleet}
    controller, the measurement harness behind the paper figures, the
    timeline, the CLI and the examples — commits through it, so
    {!Ocolos.replace_code} is reachable only through {!Txn}.

    The step has two halves, split where drivers put work between them
    (background contention, progress output, a canary rollout):

    - {!build}: BOLT at the guard's tier, then the Tier-1 translation
      validator ({!Ocolos.validate_result}); nothing in the target changes.
    - {!commit}: the stop-the-world {!Txn.replace_code} with the Tier-2
      {!Shadow} check as its pre-commit [verify] gate.

    Validation reads pure data and the shadow replays clones, and
    {!Cost} charges neither: a committed step leaves the simulated clock
    exactly where a bare replacement would. *)

(** Run BOLT on the current code version at [guard]'s tier, excluding its
    quarantined functions, then gate the result:

    + the round's per-function pass failures feed [guard]'s quarantine;
    + a modeled BOLT time past the guard's watchdog deadline abandons the
      round ([Error "watchdog: bolt deadline"]);
    + the Tier-1 validator checks the result against the live code
      version; every rejected function is quarantined at once and the
      round is abandoned ([Error "validation rejected: <checks>"]).

    [Ok (result, bolt_seconds)] is safe to hand to {!commit}. An injected
    fault inside BOLT ({!Ocolos_util.Fault.Injected}) propagates. *)
val build :
  Guard.t ->
  Ocolos.t ->
  Ocolos_profiler.Profile.t ->
  (Ocolos_bolt.Bolt.result * float, string) result

(** The stop-the-world phase as one transaction. [shadow] (default
    [true]) clones the target before the replacement and replays it
    against a clone taken after, inside the transaction: a divergence
    unwinds byte-exactly and reports {!Txn.Diverged}. Only a sampling
    controller ({!Daemon.config} [shadow_every]) turns it off. *)
val commit : ?shadow:bool -> Ocolos.t -> Ocolos_bolt.Bolt.result -> Txn.outcome

(** The committed replacement's stats, or the outcome said in words
    (["rolled back at ..."], ["diverged (...)"]). *)
val committed : Txn.outcome -> (Ocolos.replacement_stats, string) result

(** {!build} under a fresh {!Guard}, then {!commit}, once: the committed
    replacement's stats, or why nothing was committed. For drivers with
    nothing to do between the halves and no campaign history to keep. *)
val optimize :
  Ocolos.t -> Ocolos_profiler.Profile.t -> (Ocolos.replacement_stats, string) result
