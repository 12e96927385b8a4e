(** Transactional code replacement: {!Ocolos.replace_code} wrapped in an
    undo journal so that a fault firing anywhere mid-replacement rolls the
    address space, thread stacks and controller state back to the previous
    code version C_i — the managed process degrades to running unoptimized
    code instead of crashing on a half-applied patch.

    The rollback invariant (checked by the property suite): after any
    single injected fault, the process resumes on a consistent code version
    with zero dangling pointers and an execution trace identical to a run
    that never attempted the replacement. *)

type rollback = {
  rb_point : string;  (** injection point that fired *)
  rb_hit : int;  (** hit count at which it fired *)
  rb_undone : int;  (** address-space mutations undone *)
}

type diverged = {
  dv_reason : string;  (** the shadow checker's divergence description *)
  dv_undone : int;  (** address-space mutations undone *)
}

type outcome =
  | Committed of Ocolos.replacement_stats
  | Rolled_back of rollback
  | Diverged of diverged
      (** the [verify] gate rejected the fully-applied replacement; the
          transaction was unwound through the same journal rollback a
          mid-transaction fault uses, so the rollback is byte-exact *)

(** = {!Ocolos.injection_points}. *)
val injection_points : string list

(** Run the stop-the-world phase transactionally. Commits iff the
    underlying [replace_code] returns {e and} [verify] (if given) returns
    [Ok]; [verify] runs after every mutation has been applied — the
    address space and threads read as C_{i+1} — but before the journal is
    discarded, which is where the Tier-2 {!Shadow} checker hooks in. An
    [Error] verdict unwinds byte-exactly and reports {!Diverged}. On
    {!Ocolos_util.Fault.Injected} the transaction rolls back and reports
    the firing point. Any other exception (e.g. {!Ocolos.Dangling_pointer}
    from the GC verifier) also triggers a full rollback and is then
    re-raised. *)
val replace_code :
  ?verify:(unit -> (unit, string) result) -> Ocolos.t -> Ocolos_bolt.Bolt.result -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
