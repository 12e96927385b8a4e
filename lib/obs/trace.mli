(** Span tracing for the online-BOLT pipeline.

    A trace is a tree of named spans (with begin/end timestamps and typed
    attributes) plus point events: instants (e.g. a fault firing) and
    counter samples (e.g. the per-second throughput track of a timeline
    run). Timestamps come from a {e simulated} microsecond clock, never
    from the wall clock, so traces are byte-stable across identical-seed
    runs: drivers anchor the clock to simulated seconds (as produced by
    [Ocolos_sim.Clock]) with {!set_time_s}, and every recorded event then
    advances it by exactly one microsecond. The auto-tick gives every event
    a unique timestamp and guarantees strict nesting (a child span begins
    after and ends before its parent), which is what the Chrome/Perfetto
    exporter ({!Chrome}) relies on.

    Instrumented code does not thread a trace handle through every call:
    {!with_installed} makes one trace the ambient current trace for the
    extent of a function, and the lower-case helpers ({!span},
    {!open_span}, {!plot}, {!clock}) write to it — or do nothing, cheaply,
    outside every such scope. Pipeline code
    never writes an instant itself: {!Events.emit} writes it, together with
    the matching event and counters. *)

type value = S of string | I of int | F of float | B of bool

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int option;  (** enclosing span id at begin time *)
  sp_begin_us : int;
  mutable sp_end_us : int option;  (** [None] while the span is open *)
  mutable sp_attrs : (string * value) list;  (** insertion order *)
}

type event_kind = Instant | Counter

type event = {
  ev_name : string;
  ev_ts_us : int;
  ev_kind : event_kind;
  ev_args : (string * value) list;
}

type t

val create : unit -> t

(** Current simulated time in microseconds. *)
val now_us : t -> int

(** Anchor the clock at [seconds] of simulated time. The clock is
    monotonic: anchoring into the past is a no-op. *)
val set_time_s : t -> float -> unit

val advance_s : t -> float -> unit

(** [begin_span t name] opens a span as a child of the innermost open
    span. Spans opened and closed across separate calls (e.g. a profiling
    window bracketed by [Perf.start]/[Perf.stop]) are supported; closing is
    order-insensitive. *)
val begin_span : t -> ?attrs:(string * value) list -> string -> span

(** Idempotent; [attrs] are appended to the span's attribute list. *)
val end_span : t -> ?attrs:(string * value) list -> span -> unit

(** [with_span t name f] runs [f span] inside a fresh span, closing it on
    both normal return and exception (recording the exception as an
    ["error"] attribute before re-raising). *)
val with_span : t -> ?attrs:(string * value) list -> string -> (span -> 'a) -> 'a

val add_attr : span -> string -> value -> unit

(** A zero-duration point event at the current time. *)
val instant : t -> ?attrs:(string * value) list -> string -> unit

(** A sample on a named counter track (one value per series). *)
val counter : t -> string -> (string * float) list -> unit

(** All spans in begin order (begin timestamps are strictly increasing). *)
val spans : t -> span list

(** Instants and counter samples in record order. *)
val events : t -> event list

val span_count : t -> int

(** Spans currently open, innermost first. *)
val open_spans : t -> span list

(** {2 Ambient current trace} *)

(** [with_installed t f] runs [f] with [t] as the ambient trace, then
    restores the previous ambient trace (or none), on return and on
    exception alike. Scopes nest. *)
val with_installed : t -> (unit -> 'a) -> 'a

(** The ambient trace, if a {!with_installed} scope is open; {!Events}
    reads its clock and open spans. *)
val installed : unit -> t option

(** {!with_span} against the ambient trace; [f] receives [None] (and the
    helpers below become no-ops) when no trace is installed. *)
val span : ?attrs:(string * value) list -> string -> (span option -> 'a) -> 'a

val open_span : ?attrs:(string * value) list -> string -> span option
val close_span : ?attrs:(string * value) list -> span option -> unit
val set_attr : span option -> string -> value -> unit

(** Ambient {!counter}. *)
val plot : string -> (string * float) list -> unit

(** Ambient {!set_time_s}. *)
val clock : float -> unit

(** {2 Ambient replica context}

    Fleet drivers wrap per-replica work in {!in_replica}; every span,
    instant, and counter sample recorded inside (against any trace) gains a
    [("replica", I n)] attribute, which {!Chrome.of_trace} maps to a
    per-replica Perfetto process track and {!Events} copies into each
    event's fields. Contexts nest; the previous context is restored on
    return or exception. *)

val in_replica : int -> (unit -> 'a) -> 'a
val current_replica : unit -> int option
