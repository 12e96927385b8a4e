(** Tier-1 miscompile containment: pre-commit translation validation.

    Re-derives what the optimized text should look like from the input
    binary and checks a {!Bolt.result} against it before the code is ever
    injected into a live process: block-set equality modulo relocation under
    the layout permutation, branch polarity/target consistency (including
    the emitter's negated-and-swapped encoding), fallthrough
    materialization, call / fp-create / jump-table relocation validity, and
    frame-map bijectivity over covered PCs. A clean report is the
    precondition for {!Txn.replace_code}; a rejection names the BOLT pass
    whose invariant broke so the supervisor can quarantine and degrade.

    Deliberate blind spot: jump-table words are checked for validity (each
    word is some block start of the owning function) but not correspondence,
    so a permutation of valid words passes Tier 1 — the Tier-2 shadow
    checker ({!Shadow} in [lib/core]) owns that failure mode at run time. *)

type rejection = {
  rj_fid : int;  (** offending function, [-1] for whole-layout checks *)
  rj_check : string;  (** one of {!checks} *)
  rj_reason : string;
}

type report = {
  rp_funcs : int;  (** functions validated *)
  rp_blocks : int;  (** blocks compared *)
  rp_instrs : int;  (** new-text instructions checked *)
  rp_rejections : rejection list;
}

(** Check names, in pass order:
    [["bb_reorder"; "func_reorder"; "peephole"; "emit"; "frame_map"]]. *)
val checks : string list

val ok : report -> bool

(** Functions named by at least one rejection, sorted, deduplicated. *)
val rejected_fids : report -> int list

(** Rejections attributed to one named check. *)
val check_rejections : report -> string -> int

(** [run ~binary result] validates [result] against the binary BOLT
    optimized. [extern_entry] must be the same resolver passed to
    {!Bolt.run} (continuous campaigns pin calls to non-optimized functions
    at their current entries); it defaults to the input binary's symbol
    entries. [cfg_of] reconstructs one function of [binary] (default
    {!Cfg.reconstructor}); passing the {!Cfg.memoize} memo {!Bolt.run}
    used checks against the decoding BOLT optimized instead of decoding
    the binary a second time. *)
val run :
  ?extern_entry:(int -> int option) ->
  ?cfg_of:(int -> Cfg.reconstructed) ->
  binary:Ocolos_binary.Binary.t ->
  Bolt.result ->
  report

val pp_rejection : Format.formatter -> rejection -> unit
val pp_report : Format.formatter -> report -> unit
