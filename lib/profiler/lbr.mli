(** Last Branch Record ring buffer (Intel LBR analog, 32 entries): the most
    recent taken control transfers as (source PC, target) pairs. *)

type entry = { from_addr : int; to_addr : int }
type t

val capacity : int
val create : unit -> t

(** Record one taken transfer; allocates nothing. *)
val record : t -> from_addr:int -> to_addr:int -> unit

(** Current contents, oldest first, as fresh entries (built only here, at
    a PMI). *)
val snapshot : t -> entry array

val clear : t -> unit

(** Degraded snapshot of a sample batch: only the newest half survives (a
    short PMI read). Pure; used by the profiler's fault handling. *)
val truncate_batch : entry array -> entry array

(** Degraded snapshot of a sample batch: every address scrambled by a fixed
    involution, so corrupted records resolve to no symbol downstream. *)
val corrupt_batch : entry array -> entry array
