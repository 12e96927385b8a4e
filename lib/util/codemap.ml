(* Page-indexed map keyed by code address, for the simulator's code
   images: a directory indexed by [addr lsr 12] holds 4096-slot pages.
   A code image is dense and sequential — instructions a few bytes apart,
   in runs of thousands — so a lookup, a write or a removal is a
   directory load, a presence-bit test and a value load, with no hash,
   and a sweep of the image touches memory in address order.

   A page's value array is created by its first binding, filled with that
   value, and a presence bitmap says which slots are bound: an unbound
   slot's value is never read, so no dummy value of the element type is
   needed. A page whose last binding goes is dropped from the directory,
   so a retired code version's pages go away with it. Absent pages are
   one shared page with no bit set, so a lookup tests the bit without
   asking whether the page exists.

   Pages are shared copy-on-write. Each map holds an owner token, and a
   page carries the token of the map that may write it in place. [copy]
   copies only the directory and hands both maps fresh tokens, so every
   page is then foreign to both; the first write or removal on either side
   copies just that page and stamps it with the writer's token. The tokens
   are fresh blocks compared physically: no global counter, nothing to
   leak. The same sharing makes a save point cheap: [copy] before a
   transaction, and [restore] puts that directory back, walking only the
   pages the transaction replaced to report the slots it changed. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let slot_mask = page_size - 1

(* Keys are simulated code addresses. The bound keeps the directory (one
   word per 4 KiB page) at most 8 MiB whatever key a caller binds. *)
let max_key = (1 lsl 32) - 1

(* A fresh token per map and per [copy]: only its physical identity is
   ever read. *)
type owner = unit ref

type 'a page = {
  vals : 'a array; (* [||] in the shared absent page *)
  bits : Bytes.t; (* presence, one bit per slot *)
  mutable count : int; (* bound slots *)
  owner : owner; (* the one map that may write this page in place *)
}

type 'a t = {
  mutable dir : 'a page array; (* page number -> page, or [absent] *)
  absent : 'a page; (* shared by every empty directory entry; never written *)
  mutable live : int;
  mutable owner : owner; (* stamps the pages this map may write in place *)
}

let new_bits () = Bytes.make (page_size / 8) '\000'

let create () =
  let owner = ref () in
  { dir = [||]; absent = { vals = [||]; bits = new_bits (); count = 0; owner }; live = 0; owner }

let length t = t.live

let pages t = Array.fold_left (fun n pg -> if pg != t.absent then n + 1 else n) 0 t.dir

(* A directory copy. Every page becomes foreign to both maps: the source
   takes a fresh token too, so neither side writes a shared page in place. *)
let copy t =
  t.owner <- ref ();
  { dir = Array.copy t.dir; absent = t.absent; live = t.live; owner = ref () }

(* Page [p], writable by [t]: a foreign page is copied and installed
   first. [pg] is [t.dir.(p)] and is not the absent page. *)
let own t p (pg : _ page) =
  if pg.owner == t.owner then pg
  else begin
    let pg =
      { vals = Array.copy pg.vals; bits = Bytes.copy pg.bits; count = pg.count; owner = t.owner }
    in
    Array.unsafe_set t.dir p pg;
    pg
  end

(* The page holding [key]. A negative key's logical shift is past every
   directory, so it reads as absent like any other unbound key. *)
let[@inline] page t key =
  let p = key lsr page_bits in
  if p < Array.length t.dir then Array.unsafe_get t.dir p else t.absent

let[@inline] bound pg i =
  Char.code (Bytes.unsafe_get pg.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Value bound to [key], or [default] when absent. Never allocates. *)
let[@inline] find_default t key ~default =
  let pg = page t key in
  let i = key land slot_mask in
  if bound pg i then Array.unsafe_get pg.vals i else default

let find_opt t key =
  let pg = page t key in
  let i = key land slot_mask in
  if bound pg i then Some (Array.unsafe_get pg.vals i) else None

let find t key =
  let pg = page t key in
  let i = key land slot_mask in
  if bound pg i then Array.unsafe_get pg.vals i else raise Not_found

let mem t key = bound (page t key) (key land slot_mask)

let grow t p =
  let len = Array.length t.dir in
  let dir = Array.make (max (p + 1) (2 * len)) t.absent in
  Array.blit t.dir 0 dir 0 len;
  t.dir <- dir

let replace t key v =
  if key < 0 || key > max_key then invalid_arg "Codemap.replace: key out of range";
  let p = key lsr page_bits in
  if p >= Array.length t.dir then grow t p;
  let pg =
    let pg = Array.unsafe_get t.dir p in
    if pg != t.absent then own t p pg
    else begin
      let pg = { vals = Array.make page_size v; bits = new_bits (); count = 0; owner = t.owner } in
      Array.unsafe_set t.dir p pg;
      pg
    end
  in
  let i = key land slot_mask in
  if not (bound pg i) then begin
    let b = i lsr 3 in
    Bytes.unsafe_set pg.bits b
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get pg.bits b) lor (1 lsl (i land 7))));
    pg.count <- pg.count + 1;
    t.live <- t.live + 1
  end;
  Array.unsafe_set pg.vals i v

(* Removing a page's last binding drops the page from this directory
   only; a map sharing it keeps it. *)
let remove t key =
  let pg = page t key in
  let i = key land slot_mask in
  if bound pg i then begin
    let p = key lsr page_bits in
    t.live <- t.live - 1;
    if pg.count = 1 then Array.unsafe_set t.dir p t.absent
    else begin
      let pg = own t p pg in
      let b = i lsr 3 in
      Bytes.unsafe_set pg.bits b
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get pg.bits b) land lnot (1 lsl (i land 7))));
      pg.count <- pg.count - 1
    end
  end

(* The first bound slot of [pg] at or after slot [i], or -1: the rest of
   [i]'s bitmap byte, then whole bytes. *)
let next_slot pg i =
  let found = ref (-1) and i = ref i in
  while !found < 0 && !i < page_size do
    let byte = Char.code (Bytes.unsafe_get pg.bits (!i lsr 3)) lsr (!i land 7) in
    if byte = 0 then i := (!i lor 7) + 1
    else if byte land 1 <> 0 then found := !i
    else incr i
  done;
  !found

let next_key t key =
  let key = if key < 0 then 0 else key in
  let dir = t.dir in
  let found = ref max_int and p = ref (key lsr page_bits) and i = ref (key land slot_mask) in
  while !found = max_int && !p < Array.length dir do
    let pg = Array.unsafe_get dir !p in
    (if pg.count > 0 then
       let j = next_slot pg !i in
       if j >= 0 then found := (!p lsl page_bits) lor j);
    incr p;
    i := 0
  done;
  !found

(* The slots of one page position that differ between [before] and
   [after]: presence, or the value compared physically. An absent page
   has no bit set, so its value array is never read. *)
let diff_page changed ~default base (before : _ page) (after : _ page) =
  for b = 0 to (page_size / 8) - 1 do
    let x = Char.code (Bytes.unsafe_get before.bits b)
    and y = Char.code (Bytes.unsafe_get after.bits b) in
    if x lor y <> 0 then
      for j = 0 to 7 do
        let bit = 1 lsl j in
        if (x lor y) land bit <> 0 then begin
          let i = (b lsl 3) lor j in
          let v = if x land bit <> 0 then Array.unsafe_get before.vals i else default in
          let w = if y land bit <> 0 then Array.unsafe_get after.vals i else default in
          if x land bit <> y land bit || v != w then changed (base lor i) v w
        end
      done
  done

let restore dst ~from ~default ~changed =
  let before = dst.dir in
  let after = Array.map (fun pg -> if pg.count = 0 then dst.absent else pg) from.dir in
  dst.dir <- after;
  dst.live <- from.live;
  dst.owner <- ref ();
  from.owner <- ref ();
  let slot dir p = if p < Array.length dir then Array.unsafe_get dir p else dst.absent in
  for p = 0 to max (Array.length before) (Array.length after) - 1 do
    let pb = slot before p and pa = slot after p in
    if pb != pa then diff_page changed ~default (p lsl page_bits) pb pa
  done

(* Ascending key order: pages in directory order, slots in page order.
   [f] may rebind keys already bound; a key it binds or removes ahead of
   the sweep may or may not be visited. *)
let iter f t =
  let dir = t.dir in
  for p = 0 to Array.length dir - 1 do
    let pg = Array.unsafe_get dir p in
    if pg.count > 0 then begin
      let base = p lsl page_bits in
      for b = 0 to (page_size / 8) - 1 do
        let byte = Char.code (Bytes.unsafe_get pg.bits b) in
        if byte <> 0 then
          for j = 0 to 7 do
            if byte land (1 lsl j) <> 0 then begin
              let i = (b lsl 3) lor j in
              f (base lor i) (Array.unsafe_get pg.vals i)
            end
          done
      done
    end
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let keys t =
  let out = Array.make t.live 0 in
  let n = ref 0 in
  iter
    (fun k _ ->
      Array.unsafe_set out !n k;
      incr n)
    t;
  out
