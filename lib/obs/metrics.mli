(** Metrics registry: counters, gauges and fixed-bucket histograms, with
    deterministic Prometheus-text and JSON exporters.

    Metrics are identified by a name plus an optional (sorted) label set;
    registering the same identity twice returns the existing metric, and a
    kind mismatch raises [Invalid_argument]. Exporters emit families in
    lexicographic (name, labels) order, with all numbers rendered through
    {!Json.number}, so two identical runs dump byte-identical output.

    Like {!Trace}, a registry can be made the ambient registry for the
    extent of a function with {!with_installed}; {!count}, {!record} and
    {!sample} then feed it (or cheaply do nothing outside every such
    scope), which is how pipeline code reports without threading a
    handle. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : registry -> ?labels:(string * string) list -> ?help:string -> string -> counter
val inc : counter -> int -> unit
val counter_value : counter -> int

val gauge : registry -> ?labels:(string * string) list -> ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [buckets] are upper bounds, strictly increasing; an implicit [+Inf]
    bucket is appended. An observation [v] lands in the first bucket with
    [v <= bound] (Prometheus [le] semantics). *)
val histogram :
  registry -> ?labels:(string * string) list -> ?help:string -> buckets:float array ->
  string -> histogram

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** Per-bucket (non-cumulative) counts; last entry is the [+Inf] bucket. *)
val hist_buckets : histogram -> (float * int) array

(** Replacement-pause-length buckets (simulated seconds). *)
val pause_buckets : float array

(** Per-round IPC buckets. *)
val ipc_buckets : float array

(** Request-latency buckets (simulated seconds) for open-loop per-replica
    histograms ([ocolos_fleet_request_latency_seconds{replica="..."}]). *)
val latency_buckets : float array

(** Open-loop queue-depth buckets (requests waiting at a sample instant)
    for [ocolos_fleet_queue_depth{replica="..."}]. *)
val queue_depth_buckets : float array

(** Prometheus text exposition format. *)
val to_prometheus : registry -> string

val to_json : registry -> Json.t

(** {2 Ambient registry} *)

(** [with_installed r f] runs [f] with [r] as the ambient registry, then
    restores the previous one (or none), on return and on exception
    alike. Scopes nest. *)
val with_installed : registry -> (unit -> 'a) -> 'a

(** Add to an ambient counter (created on first use). *)
val count : ?labels:(string * string) list -> string -> int -> unit

(** Set an ambient gauge. *)
val record : ?labels:(string * string) list -> string -> float -> unit

(** Observe into an ambient histogram. *)
val sample : ?labels:(string * string) list -> buckets:float array -> string -> float -> unit
