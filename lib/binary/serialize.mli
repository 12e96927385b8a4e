(** Binary image serialization ("OCLB" container): sections, code records,
    symbols, v-tables, globals, entry point and debug info — a loadable
    round-trip of {!Binary.t}. The CLI uses it to save BOLTed binaries for
    later runs (the offline-BOLT deployment flow). *)

exception Corrupt of string

val to_bytes : Binary.t -> Bytes.t

(** Raises {!Corrupt} (or {!Ocolos_isa.Encode.Decode_error}) on malformed
    images, code addresses that do not strictly ascend among them. *)
val of_bytes : Bytes.t -> Binary.t

val save : string -> Binary.t -> unit
val load : string -> Binary.t
