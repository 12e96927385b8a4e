(** Maximum resident set size model (paper Table I): mapped text,
    initialized data, touched thread-local regions, a fixed runtime
    baseline, and — for OCOLOS — the transient working set of the injected
    text, profile buffers and BOLT's IR. *)

val baseline_bytes : int
val word_bytes : int
val data_bytes : Ocolos_binary.Binary.t -> int
val thread_bytes : Ocolos_workloads.Input.t -> int

val of_binary :
  ?nthreads:int -> Ocolos_binary.Binary.t -> input:Ocolos_workloads.Input.t -> int

(** [resident_extra] is the transient OSR overhead still mapped at the
    peak — residue (stubs and kept text) plus inherited jump-table words
    ({!Ocolos_core.Ocolos.resident_extra_bytes}); it reaches 0 after
    convergence once migrated frames drain. *)
val ocolos :
  ?nthreads:int ->
  ?resident_extra:int ->
  Ocolos_binary.Binary.t ->
  input:Ocolos_workloads.Input.t ->
  stats:Ocolos_core.Ocolos.replacement_stats ->
  profile_records:int ->
  bolt_work_instrs:int ->
  int

val mib : int -> float
