(* Last Branch Record ring buffer.

   Models Intel's LBR facility (Section II-A of the paper): the 32 most
   recent taken control transfers, recorded as (source PC, target) pairs.
   Software samples the ring to reconstruct hot control-flow paths.

   The ring is two parallel [int array]s, so [record] (once per taken
   branch while sampling) stores two ints and allocates nothing; entry
   records are built only by [snapshot], at a PMI. *)

type entry = { from_addr : int; to_addr : int }

type t = {
  from_addrs : int array;
  to_addrs : int array;
  mutable head : int; (* next write position *)
  mutable filled : int;
}

let capacity = 32

let create () =
  { from_addrs = Array.make capacity 0; to_addrs = Array.make capacity 0; head = 0; filled = 0 }

let record t ~from_addr ~to_addr =
  Array.unsafe_set t.from_addrs t.head from_addr;
  Array.unsafe_set t.to_addrs t.head to_addr;
  t.head <- (t.head + 1) mod capacity;
  if t.filled < capacity then t.filled <- t.filled + 1

(* Entries oldest-first, as a sample snapshot. *)
let snapshot t =
  Array.init t.filled (fun i ->
      let slot = (t.head + capacity - t.filled + i) mod capacity in
      { from_addr = t.from_addrs.(slot); to_addr = t.to_addrs.(slot) })

let clear t =
  t.head <- 0;
  t.filled <- 0

(* ---- sample-batch degradation (fault-injection support) ----

   Models what a flaky PMI delivery does to a snapshot: a truncated batch
   keeps only the newest half of the ring, and a corrupted batch has its
   entry addresses scrambled deterministically. Both are pure so the
   profiler's fault handling stays replayable from the seed. *)

(* Keep the newest [ceil (n/2)] entries (the oldest transfers are the ones
   a short read loses first). *)
let truncate_batch (entries : entry array) =
  let n = Array.length entries in
  let keep = (n + 1) / 2 in
  Array.sub entries (n - keep) keep

(* Scramble every entry's addresses with a fixed involution; corrupted
   records land outside any mapped symbol and must be dropped downstream. *)
let corrupt_batch (entries : entry array) =
  Array.map
    (fun e ->
      { from_addr = e.from_addr lxor 0x5A5A_5A5A; to_addr = e.to_addr lxor 0x5A5A_5A5A })
    entries
