(** Structured event log: one JSON object per line (JSONL), byte-stable,
    and {!emit}, the one instrumentation call of the pipeline.

    Where {!Trace} captures durations for a timeline UI and {!Metrics}
    captures aggregates for dashboards, this log captures the pipeline's
    discrete decisions as typed records an operator can grep or feed to a
    query engine: profile windows opening and closing, each BOLT pass,
    every transaction phase and fault injection, guard state transitions,
    and canary promote/rollback/recover actions at fleet scale.

    Pipeline code reports an occurrence once, with {!emit}: the {!catalog}
    row for its type decides whether it is also a trace instant and which
    counters it feeds, so the instant, the event and the counters can never
    disagree. The catalog is the list of event types and their counters.

    Every event cross-links into the Chrome/Perfetto export: its [ts_us]
    is read from the ambient {!Trace} clock (without ticking it, so
    installing an event log never changes trace bytes) and its [span] is
    the id of the innermost open trace span at record time — the same id
    the span carries in the trace-event JSON. Events recorded inside
    {!Trace.in_replica} additionally carry a ["replica"] field, matching
    the replica's Perfetto process track.

    Like the other sinks, a log can be made the ambient event log for the
    extent of a function with {!with_installed}; {!emit} feeds it, and
    outside every such scope it cheaply does nothing. Sequence numbers and the simulated clock are the only time
    sources, so two identical seeded runs emit byte-identical JSONL. *)

type event = {
  e_seq : int;  (** 0-based record order *)
  e_ts_us : int;  (** ambient trace clock at record time (0 if none) *)
  e_type : string;  (** dotted event type, e.g. ["txn.rollback"] *)
  e_span : int option;  (** innermost open trace span id, if any *)
  e_fields : (string * Trace.value) list;  (** insertion order *)
}

type t

val create : unit -> t

(** Record one event. [ts_us]/[span] come from the ambient trace. *)
val record : t -> ?fields:(string * Trace.value) list -> string -> unit

(** All events in record order. *)
val events : t -> event list

val count : t -> int

(** One event as a compact JSON object (no trailing newline). *)
val event_to_string : event -> string

(** The whole log, one JSON object per line, trailing newline included. *)
val to_jsonl : t -> string

(** Write {!to_jsonl} to [path]. *)
val save : string -> t -> unit

(** {2 Ambient event log} *)

(** [with_installed t f] runs [f] with [t] as the ambient event log, then
    restores the previous one (or none), on return and on exception
    alike. Scopes nest. *)
val with_installed : t -> (unit -> 'a) -> 'a

(** {2 The event catalog} *)

(** How much one occurrence adds to a counter family: [1], or the value of
    the named int field. *)
type increment = One | Field of string

(** A counter family fed by an event type; its label values are the named
    string fields. *)
type family = { family : string; by : increment; labels : string list }

(** One row per event type: whether an occurrence is also a trace instant
    (with the event's fields as args), and the counter families it feeds.
    A counter family is fed either here or by direct {!Metrics} calls,
    never both. *)
type kind = { instant : bool; counters : family list }

val catalog : (string * kind) list

(** [emit type_ fields] reports one occurrence: the trace instant first
    (when the row says so; its tick decides the event's [ts_us]), then the
    event, with the same fields, then the row's counters — each to the
    ambient sink, if any is installed. Raises [Invalid_argument] for a type
    missing from {!catalog}, or a counter field missing or of the wrong
    type. *)
val emit : string -> (string * Trace.value) list -> unit
