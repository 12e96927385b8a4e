(** On-stack replacement: the one code-version transition that both a
    commit ({!Ocolos.replace_code}) and a rollback ({!Ocolos.revert}) run.

    A transition retires some text — the {e doomed} ranges — in favour of a
    desired entry per function, in two steps:

    + {!migrate} patches v-table slots and direct call sites, then moves
      every live frame, PC and scratch register off the doomed text
      (through a frame map or a compensation stub), redirects surviving
      code and rewrites data words;
    + {!retire} unmaps the doomed text, reaps residue no thread can reach
      and runs the post-GC reachability scan.

    No path relocates code. When a frame, PC, register, data word or
    residue reaches doomed text that neither a frame map nor a stub
    translates, the owning function's doomed ranges are {e kept}: they stay
    mapped at their own addresses as round residue, with only their
    cross-function entry targets moved to the desired entries, and the
    reaper frees them once nothing reaches them.

    The directions differ only in what they pass: the doomed ranges, the
    desired-entry function, the frame maps ([[]] on revert, so a live frame
    in the newer text keeps its function) and the fault cut (a no-op on
    revert). *)

(** Transient code one OSR round left behind — a compensation stub, or a
    function's doomed text kept in place — tagged with that round. *)
type residue = {
  rs_fid : int;
  rs_round : int;
  rs_ranges : (int * int) list;  (** [\[start, end)] *)
}

(** Address-keyed maps and sets, for the view's entry index and tracked
    words. *)
module Imap : Map.S with type key = int

module Iset : Set.S with type elt = int

(** One code version's controller state, as an immutable value. The
    controller holds the live view in the [view] field of {!t}; a commit,
    a reap, a reattach and a revert each build the next view and assign
    it, a transaction rollback assigns back the view it saved, and a
    snapshot for {!Ocolos.revert} is a view plus the tracked words'
    values. The per-fid arrays are indexed like [Binary.symbols] and
    never written after the view is built. *)
type view = {
  version : int;  (** the code version number: C[version] *)
  current : Ocolos_binary.Binary.t;
      (** the live binary view: code, ranges (resident plus residue) and
          live entries of every function *)
  resident : (int * int) list array;
      (** fid -> code ranges of its current resident version *)
  entry_fid : int Imap.t;  (** entry address of any version ever live -> fid *)
  init_addrs : Iset.t;  (** every tracked data word *)
  table_addrs : Iset.t;  (** tracked words whose registered value was a code address *)
  residue : residue list;
  inherited : (int * int list) list;
      (** (round, word addrs): jump-table words of a retired version that
          the round's residue still dispatches through; reaped when the
          round's residue drains *)
}

(** [entry view fid]: the function's live entry in [view]. *)
val entry : view -> int -> int

(** The process-constant tables OSR reads, the round counter and the live
    view. *)
type t = {
  proc : Ocolos_proc.Proc.t;
  vtable_slots : (int * int * int) array;  (** (vid, slot, fid) *)
  offline_sites : (int * int * int) array;
      (** (call-site address, owner fid, callee fid), from offline analysis *)
  patch_all_direct_calls : bool;
      (** ablation: patch every offline call site, not only stack-live ones *)
  mutable rounds : int;  (** monotone round counter, never rolled back *)
  mutable view : view;
}

(** One round's migration context: doomed-range set, stubs built, kept
    functions, fault cut and the open [replace.gc] span. *)
type ctx

(** What {!migrate} did, and what {!retire} needs to finish the round. *)
type round = {
  number : int;  (** this round's residue tag *)
  doomed : (int * int) list;
  vtable_patched : int;
  sites_patched : int;
  stack_live : int;  (** stack-live functions when call sites were patched *)
  frames : int;  (** frames / PCs rewritten *)
  stubs : int;  (** compensation stubs built *)
  kept : int;  (** functions whose doomed text was kept in place *)
  inherited_words : int list;
      (** tracked jump-table words of the retiring text, not yet inherited,
          that the data scan found *)
  ctx : ctx;
}

(** First step of a transition, under [replace.vtable_patch] and
    [replace.call_patch] spans and — when [doomed] is non-empty — the
    opening of [replace.gc]: set every v-table slot to [desired fid];
    start a new round; point direct call sites of stack-live owners (all
    owners under [patch_all_direct_calls]) and every site still calling
    into [doomed] at [desired callee]; then migrate every running thread
    through [fms], redirect static targets of surviving code and rewrite
    data words holding doomed addresses. [cut] is called at every fault
    point ([vtable_patch], [call_patch], [osr_frame], [osr_map],
    [osr_stub]). Must be followed by {!retire}. *)
val migrate :
  t ->
  doomed:(int * int) list ->
  desired:(int -> int) ->
  fms:(int * Ocolos_bolt.Frame_map.t) list ->
  cut:(string -> unit) ->
  round

(** Second step: unmap the round's doomed text minus what it kept, merge
    its residue into the view, reap unreachable residue and drained
    inherited words (a new view without them is assigned),
    close [replace.gc], then run {!verify_no_dangling} over everything
    freed under a [replace.verify] span. Calls the round's cut at [gc_unmap], [gc_reap]
    and [verify]. Returns the bytes freed. A round with nothing doomed
    retires nothing and returns 0. *)
val retire : t -> round -> int

(** Residue GC outside a transition: reap residue no thread PC, frame or
    register can reach, and inherited words whose round has drained, and
    assign the view without them. The process must be paused. Returns
    bytes freed. *)
val reap : t -> int

(** Raised by {!verify_no_dangling}. *)
exception Dangling_pointer of string

(** Post-GC reachability audit of v-table slots, thread PCs and frames,
    offline call sites, engine-held code pointers and every static target
    in the code map against [freed]; [freed = []] requires every scanned
    pointer to be mapped. *)
val verify_no_dangling : t -> freed:(int * int) list -> unit

(** Stack-live function set (by return addresses and PCs), as fids. *)
val stack_live_fids : t -> (int, unit) Hashtbl.t

(** Bytes of residue (stubs and kept text) currently mapped. *)
val residue_bytes : t -> int

(** Residue bytes plus 8 per inherited jump-table word. *)
val resident_extra_bytes : t -> int
