(** The BOLT pipeline: profile + binary -> optimized binary (paper
    Section II-D).

    Selects hot functions from the profile, reconstructs their CFGs from
    machine code, reorders basic blocks (with optional hot/cold splitting),
    reorders functions (C3 by default), and emits the optimized code into a
    new [.text] section at higher addresses while the original code remains
    in place as [bolt.org.text]. *)

type func_order = C3 | Pettis_hansen | Original_order

type config = {
  reorder_blocks : bool;
  split_functions : bool;
  func_order : func_order;
  hot_threshold : int;  (** min LBR records for a function to be optimized *)
  max_hot_funcs : int option;
  peephole : bool;
  exclude : int list;
      (** fids never selected for optimization (supervisor quarantine) *)
  exact_frame_maps : bool;
      (** emit instruction-granular OSR frame maps (the default); when
          false only block boundaries are mapped, so every mid-block
          pointer migrates through a compensation stub *)
  lite : bool;
      (** true (the default, as in BOLT [-lite]): only profiled-hot
          functions are re-emitted and the rest keep their old text.
          False is the [-use-old-text=false] analog: cold and
          never-executed functions are re-emitted verbatim after the hot
          set, making the new image complete — required for a campaign to
          retire the entire original text. *)
}

val default_config : config

type result = {
  merged : Ocolos_binary.Binary.t;
      (** original + optimized sections: the BOLTed binary (offline use) *)
  new_text : Ocolos_binary.Binary.t;
      (** only the optimized section — what OCOLOS injects at run time *)
  translation : (int * int) list;
      (** old entry -> new entry for every optimized function *)
  hot_fids : int list;
  funcs_reordered : int;
  work_instrs : int;  (** processed volume, for the time model *)
  skipped : int;  (** functions whose reconstruction was refused *)
  failed : (int * string) list;
      (** (fid, fault point) pairs degraded per-function by an injected
          fault — excluded from (cfg) or left unoptimized by (bb_reorder,
          peephole) this run; feeds the supervisor's quarantine *)
  bolt_base : int;
  frame_maps : (int * Frame_map.t) list;
      (** per optimized function, the OSR map from its old code version
          into [new_text] (see {!Frame_map}) *)
}

val align_up : int -> int -> int
val sections_end : Ocolos_binary.Binary.t -> int
val fresh_data_base : Ocolos_binary.Binary.t -> int

(** [run ~binary ~profile ()] optimizes [binary] under [profile].
    [extern_entry] overrides how calls to non-optimized functions are
    resolved (OCOLOS's continuous mode pins them to the original C0 entries
    so that old versions can be garbage-collected); it defaults to the input
    binary's symbol entries.

    With [?fault], the [bolt.*] domain is exercised: [bolt.cfg],
    [bolt.bb_reorder] and [bolt.peephole] are cut once per hot function and
    absorb {!Ocolos_util.Fault.Injected} as per-function degradation
    (skip / original block order / no peephole), attributed in
    [result.failed]; [bolt.func_reorder] is cut once per run and raises —
    no per-function fallback exists for a broken global order.
    {!Ocolos_util.Fault.Killed} always escapes.

    [cfg_of] reconstructs one function of [binary]'s code (default
    {!Cfg.reconstructor}); pass a {!Cfg.memoize} memo to share the
    decoding with {!Validate.run}. *)
val run :
  ?config:config ->
  ?extern_entry:(int -> int option) ->
  ?fault:Ocolos_util.Fault.t ->
  ?cfg_of:(int -> Cfg.reconstructed) ->
  binary:Ocolos_binary.Binary.t ->
  profile:Ocolos_profiler.Profile.t ->
  unit ->
  result
