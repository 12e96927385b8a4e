(** Microbenchmark comparing the decoded-block engine against the reference
    interpreter: same workload, input and seed, fixed instruction budget,
    best-of-repeats wall time. Both engines are deterministic, so the final
    uarch counters must be bit-identical; {!compare_engines} verifies that
    alongside the throughput ratio. *)

type engine_sample = {
  wall_s : float;  (** best-of-repeats wall-clock seconds *)
  instructions : int;  (** instructions retired in the measured run *)
  ips : float;  (** instructions per wall-clock second *)
}

type comparison = {
  workload : string;
  input : string;
  instructions : int;
  reference : engine_sample;
  blocks : engine_sample;
  speedup : float;  (** [blocks.ips /. reference.ips] *)
  counters_equal : bool;  (** final counters bit-identical across both engines *)
}

val default_max_instrs : int
val default_repeats : int

val compare_engines :
  ?repeats:int ->
  ?max_instrs:int ->
  Ocolos_workloads.Workload.t ->
  input:Ocolos_workloads.Input.t ->
  comparison

(** JSON record for [BENCH_engines.json]. *)
val to_json : comparison -> Ocolos_obs.Json.t
