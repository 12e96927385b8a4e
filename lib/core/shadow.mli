(** Tier-2 miscompile containment: post-commit shadow execution.

    Tier-1 validation ({!Ocolos_bolt.Validate}) is structural and runs
    before commit; its one deliberate blind spot is jump-table
    {e correspondence} (a rotated table is still a table of valid block
    starts). The shadow checker closes that hole behaviourally: the target
    is cloned immediately before and immediately after a commit — the
    stop-the-world replacement brackets the two captures, so no workload
    instruction retires between them and the clones stand at the same
    architectural point — and both clones are replayed for a short window
    on the reference engine under identical scheduling.

    Compared observables are layout-invariant: per-thread call / return /
    indirect-jump event streams resolved to function ids (plus block ids
    for indirect-jump targets, via the round's frame maps), and — when
    both replays run to architectural completion — transaction counts,
    final registers, stacks and data memory modulo the round's old->new
    address translation. Conditional-branch and plain-jump events are
    excluded: emission negates branch polarity and elides fallthrough
    jumps, so their taken-event streams legitimately differ between
    equivalent layouts.

    Nothing a clone writes is seen by the live process (its code pages are
    shared copy-on-write, and each clone thread replays on a replay-only
    core): arming and checking the shadow never perturbs the target's
    execution. *)

type config = {
  window : int;  (** instructions replayed per clone *)
  quantum : int;  (** scheduler quantum for the replays *)
}

(** [{ window = 4096; quantum = 64 }]. *)
val default_config : config

type verdict = Match | Divergence of string

(** Pre-commit capture: a clone of the target still on C_i. *)
type prepared

(** An armed shadow: both captures plus the round's translation tables. *)
type t

(** Clone the target {e before} [Txn.replace_code]. *)
val prepare : ?config:config -> Ocolos.t -> prepared

(** Clone the target {e immediately after} a committed replacement and
    index the round's translation by block (function entries and block
    starts) from the BOLT result; exact OSR points are resolved on demand
    through the owning function's frame map. *)
val arm : prepared -> Ocolos.t -> Ocolos_bolt.Bolt.result -> t

(** Replay both clones and compare. Logs a ["shadow.verdict"] event and
    bumps [ocolos_shadow_checks_total] / [ocolos_shadow_divergences_total].
    A replay fault on the new-version clone only (corrupted code running
    off the map) is itself a divergence. *)
val check : t -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
