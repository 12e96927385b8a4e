(** Page-indexed map keyed by code address, for the code images
    ([Binary.code], [Binary.debug], [Addr_space.code]): a directory indexed
    by [addr lsr 12] holds 4096-slot pages with a presence bitmap. A
    lookup, write or removal hashes nothing; iteration runs in ascending
    key order; a page is freed when its last binding is removed. Pages are
    shared copy-on-write between a map and its copies.

    Keys bound must lie in [0, 2^32); any int may be looked up (one
    outside that range is never found). *)

type 'a t

(** The largest key {!replace} binds. *)
val max_key : int

val create : unit -> 'a t

(** Number of live bindings. *)
val length : 'a t -> int

(** Number of pages held: those with at least one binding. *)
val pages : 'a t -> int

(** Independent copy: same bindings, and no write or removal on either
    map is seen by the other. Costs a directory copy: the two maps share
    every page, and the first write or removal on either side to a shared
    page copies that page alone (4096 slots and a 512-byte bitmap). *)
val copy : 'a t -> 'a t

(** [restore dst ~from ~default ~changed] makes [dst] read as [from]
    (its save point, typically a {!copy} taken earlier), in place, so
    whoever holds [dst] sees the restored bindings. The restored
    directory shares [from]'s pages copy-on-write, as {!copy} does: both
    maps take fresh owner tokens. Then [changed key before after] is
    called, in ascending key order, for every key whose presence or value
    (compared physically) differs between [dst]'s old bindings and the
    restored ones, an absent side read as [default]. Directory entries
    holding the same page on both sides are skipped whole, so the walk
    costs the pages replaced since the save point, not the image. *)
val restore : 'a t -> from:'a t -> default:'a -> changed:(int -> 'a -> 'a -> unit) -> unit

(** The least bound key [>= key], or [max_int] when there is none. Empty
    pages are skipped whole, so walking an image instruction by
    instruction with it costs nothing per unmapped byte. *)
val next_key : 'a t -> int -> int

(** Value bound to [key], or [default] when absent; never allocates. *)
val find_default : 'a t -> int -> default:'a -> 'a

(** Value bound to [key]; raises [Not_found] when absent. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** Bind [key] (inserting or overwriting). Raises [Invalid_argument] for a
    key outside [0, 2^32). *)
val replace : 'a t -> int -> 'a -> unit

(** Remove [key]'s binding if present. *)
val remove : 'a t -> int -> unit

(** Bindings in ascending key order. [f] may rebind a key already bound;
    a key it binds or removes ahead of the sweep may or may not be
    visited. *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

(** [iter]'s order. *)
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** The live keys, ascending. *)
val keys : 'a t -> int array
