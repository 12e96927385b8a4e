(** Generic set-associative cache with true-LRU replacement.

    Instantiated as L1i, L1d and unified L2 (64-byte lines) and as the iTLB
    (a "cache" of 4 KiB pages). Tracks hit/miss counters. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bits : int;
  tags : int array array;
  stamp : int array array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable m_line : int;  (** way memo: last line touched by {!access} ... *)
  mutable m_way : int;  (** ... and the way it resolved to (a verified hint) *)
  mutable p_line : int;  (** the same memo for {!prefetch}'s residency check *)
  mutable p_way : int;
}

(** [create ~name ~sets ~ways ~line_bytes]. [sets] and [line_bytes] must be
    powers of two. *)
val create : name:string -> sets:int -> ways:int -> line_bytes:int -> t

(** [of_size ~name ~size_bytes ~ways ~line_bytes] derives the set count.
    Raises [Invalid_argument] unless [size_bytes] factors exactly as
    [sets * ways * line_bytes] (with [sets] a power of two): a cache of the
    wrong size is never modeled silently. *)
val of_size : name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t

val line_of : t -> int -> int

(** Access a byte address; true on hit. A miss fills the line, evicting the
    LRU way. *)
val access : t -> int -> bool

(** Hardware prefetch; never moves the hit/miss counters. A prefetch of a
    resident line is a complete no-op (recency and the LRU clock are
    untouched, so prefetch-hits cannot reorder demand evictions); a
    prefetch of an absent line fills the LRU/invalid way and becomes MRU,
    like a demand fill. Returns true if the line was already resident. *)
val prefetch : t -> int -> bool

(** Check residency without updating LRU state or counters. *)
val probe : t -> int -> bool

(** Row helpers for set-associative tables kept as one [int array] row per
    set (also used by {!Btb}); both allocate nothing. [find_way row key]
    is the way holding [key], or -1. [victim_way tags stamps] is the way a
    fill takes: the first invalid ([-1]) way, else the least recently
    stamped one, ties to the lowest way. [tags] must be non-empty and
    [stamps] at least as long. *)
val find_way : int array -> int -> int

val victim_way : int array -> int array -> int

val reset_counters : t -> unit

(** Invalidate all lines and reset counters. *)
val flush : t -> unit

val accesses : t -> int
val miss_rate : t -> float
val size_bytes : t -> int
