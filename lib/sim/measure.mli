(** Measurement drivers shared by the benchmark harness and examples: the
    paper's experimental configurations (steady-state throughput, offline
    profile collection, BOLT / PGO comparators, full online OCOLOS runs). *)

type sample = {
  tps : float;  (** transactions per simulated second *)
  counters : Ocolos_uarch.Counters.t;  (** interval counters *)
  topdown : Ocolos_uarch.Counters.topdown;
}

val default_warmup : float
val default_measure : float

(** Steady-state throughput of [binary] (default: the workload's original)
    running [input]. *)
val steady :
  ?binary:Ocolos_binary.Binary.t ->
  ?seed:int ->
  ?warmup:float ->
  ?measure:float ->
  Ocolos_workloads.Workload.t ->
  input:Ocolos_workloads.Input.t ->
  sample

(** Collect an LBR profile offline: fresh process, warmup, sample for
    [seconds]. *)
val collect_profile :
  ?binary:Ocolos_binary.Binary.t ->
  ?seed:int ->
  ?warmup:float ->
  ?seconds:float ->
  Ocolos_workloads.Workload.t ->
  input:Ocolos_workloads.Input.t ->
  Ocolos_profiler.Profile.t

(** Offline BOLT with the given profile (oracle or average-case, depending
    on the profile passed). *)
val bolt_binary :
  ?config:Ocolos_bolt.Bolt.config ->
  Ocolos_workloads.Workload.t ->
  Ocolos_profiler.Profile.t ->
  Ocolos_bolt.Bolt.result

(** Clang-PGO analog with the same profile. *)
val pgo_binary :
  ?config:Ocolos_pgo.Pgo.config ->
  Ocolos_workloads.Workload.t ->
  Ocolos_profiler.Profile.t ->
  Ocolos_pgo.Pgo.result

type ocolos_run = {
  post : sample;  (** steady state after code replacement *)
  stats : Ocolos_core.Ocolos.replacement_stats;
  perf2bolt_seconds : float;
  bolt_seconds : float;
  profile : Ocolos_profiler.Profile.t;
  rollbacks : int;  (** replacement attempts rolled back by injected faults *)
  attempts : int;  (** total replacement attempts (rollbacks + the commit) *)
  resident_extra_bytes : int;
      (** transient OSR overhead (stubs, kept text and inherited jump-table
          words) mapped right after the commit — the drain-window peak the
          RSS model must include *)
  breaker : Ocolos_core.Guard.breaker_state;
      (** circuit-breaker state after the run (Open after a failed campaign
          when the guard is shared across runs) *)
  quarantined : int list;  (** fids the guard excluded from reordering *)
}

(** Raised by {!ocolos_steady} when nothing was committed: the Tier-1
    validator rejected the BOLT result, the shadow check diverged, or every
    replacement attempt rolled back. The message says which; the process
    still runs its original layout. *)
exception Replacement_failed of string

(** A full online OCOLOS cycle on a freshly launched process: warm up,
    profile the running process, BOLT in the background (charging
    contention stalls), replace code (charging the pause), then measure.
    It optimizes through {!Ocolos_core.Step}: the BOLT result must pass
    the Tier-1 validator, and each replacement attempt is a transaction
    gated by the Tier-2 shadow check. Rolled-back attempts charge their
    aborted pause and are retried up to 4 attempts in total; a
    rejection, a divergence or a spent retry budget raises
    {!Replacement_failed}. Neither gate is charged to the simulated clock.

    [guard] (default: fresh) carries supervision state: per-function BOLT
    failures and Tier-1 rejections feed its quarantine (excluded from
    reordering on this and later runs sharing the guard), its tier picks
    the BOLT pipeline, the commit/failure outcome feeds its circuit breaker
    (a divergence trips it), and the final state is reported in the
    result. *)
val ocolos_steady :
  ?config:Ocolos_core.Ocolos.config ->
  ?guard:Ocolos_core.Guard.t ->
  ?seed:int ->
  ?warmup:float ->
  ?profile_s:float ->
  ?measure:float ->
  Ocolos_workloads.Workload.t ->
  input:Ocolos_workloads.Input.t ->
  ocolos_run
