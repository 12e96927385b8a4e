(** Open-addressing hash table keyed by int, for the simulator's data
    memory and per-address scratch tables (code maps are {!Codemap}s): [find_default] allocates nothing and never leaves
    OCaml (stdlib [Hashtbl] pays a [caml_hash] C call and a polymorphic
    compare per operation). Linear probing, Fibonacci hashing, tombstone
    deletion. [min_int] and [min_int + 1] are reserved: they are never
    found, and binding one raises [Invalid_argument] (simulated addresses
    stay away from them). *)

type 'a t

(** [create n] sizes the table for about [n] bindings. *)
val create : int -> 'a t

(** Number of live bindings. *)
val length : 'a t -> int

(** Independent copy: same bindings, shares no storage with the source. *)
val copy : 'a t -> 'a t

(** Value bound to [key], or [default] when absent; never allocates. *)
val find_default : 'a t -> int -> default:'a -> 'a

(** Value bound to [key]; raises [Not_found] when absent. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** Bind [key] (inserting or overwriting). *)
val replace : 'a t -> int -> 'a -> unit

(** [replace] for int values, writing the value array as an [int array]:
    no write barrier. The data memory's per-store path. *)
val replace_int : int t -> int -> int -> unit

(** Remove [key]'s binding if present. *)
val remove : 'a t -> int -> unit

(** Bindings in slot order: deterministic for a given history of
    bindings, but not sorted by key. *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
