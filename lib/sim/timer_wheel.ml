(* Hierarchical timer wheel with O(1) add, O(1) true cancel and amortised
   O(1) pop.  Keys are non-negative nanosecond deadlines; entries with
   equal keys pop in insertion order, so the wheel fires events in exactly
   the same (key, insertion) order as a stable binary heap would.

   Layout: [levels] levels of [slots] = 2^[slot_bits] buckets each.  Level l
   covers a window of 2^(slot_bits*(l+1)) ns split into [slots] buckets of
   2^(slot_bits*l) ns.  An entry with deadline [key] lives at the level
   given by the highest bit in which [key] differs from the wheel's current
   time [cur]; when [cur] advances into a higher-level bucket's window the
   bucket is cascaded (redistributed) into lower levels.

   Storage is a set of parallel arrays indexed by entry number.  Key,
   prev/next links, bucket position and generation are [int array]s; the
   payloads sit in one value array.  In OCaml 5 every pointer store into a
   major-heap block pays the write barrier ([caml_modify]), and a wheel
   whose records are recycled keeps them all in the major heap; with int
   links, linking, unlinking and cascading store no pointer at all, and
   the only barriered stores per entry are writing its payload and
   clearing it.  A timer entry (below) keeps its payload across a pop or
   cancel and [link] skips storing the payload it already holds, so a
   timer re-armed with the same thunk stores no pointer at all; its owner
   holds it for life, so the kept payload is bounded by the number of
   timers.  Indices [0, sentinels) are the buckets' sentinels, so
   each bucket is a circular doubly-linked list and cancel unlinks in
   O(1).  Free entries sit on an int stack.

   A handle packs an entry's index with its generation.  Recycling an
   entry bumps its generation, so a handle whose entry has fired or been
   cancelled and then reused resolves to nothing: cancelling it is a
   checked no-op.  A timer entry has an odd generation that never changes
   and never returns to the free stack, so its handle can be re-armed for
   life.

   Order invariant: every entry whose deadline lies within the current
   level-(l+1) bucket window is stored at level <= l, because the cascade
   pulls a window's entries down exactly when [cur] enters it and [cur]
   only moves forward.  A bucket holding its window's one entry is not
   cascaded: [pop] returns that entry where it sits, so the window is
   empty once [cur] is in it.  Hence a direct add into a bucket always
   comes after anything cascaded there earlier, cascading preserves list
   order, and bucket lists stay in insertion order: popping the head of
   the lowest occupied slot reproduces heap order exactly.

   [cur] moves only inside [pop], to the key it returns.  Looking ahead
   ([min_key]) reads the wheel without cascading, so [cur] never passes an
   instant that has not been popped: any key at or after the last pop is
   accepted, and a caller whose clock follows the pops needs no side queue
   for deadlines it schedules after a look-ahead. *)

let slot_bits = 5
let slots = 1 lsl slot_bits (* 32 *)
let slot_mask = slots - 1
let levels = 13 (* 13 * 5 = 65 bits: covers any non-negative OCaml int key *)
let sentinels = levels * slots (* entry [level * slots + slot] heads a bucket *)

(* handle = generation lsl idx_bits lor index; both fields are masked so a
   handle is a non-negative int *)
let idx_bits = 30
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl (62 - idx_bits)) - 1

type handle = int

type 'a t = {
  mutable key : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable pos : int array; (* bucket sentinel while linked; -1 detached *)
  mutable gen : int array; (* odd: a timer's; even: bumped on recycling *)
  mutable value : 'a array;
      (* [dummy] in a free or detached ordinary entry; a timer's last
         payload *)
  mutable free : int array; (* stack of recycled entry indices *)
  mutable nfree : int;
  occupancy : int array; (* per-level bitmap of non-empty slots *)
  mutable level_occ : int; (* bitmap of levels with any non-empty slot *)
  mutable cur : int; (* key of the last pop; all live keys are >= cur *)
  mutable live : int;
  mutable settled : int;
      (* memo of the last [settle] result: the bucket holding the
         minimum, or -1.  Valid while that bucket is non-empty: its one
         deadline is [cur], which no live key undercuts, and its entries
         were added before any later add at [cur]. *)
  mutable min_memo : int; (* smallest live key when known, else -1 *)
  dummy : 'a;
}

(* The arrays start with the sentinels alone; entries arrive with the
   first [grow]. *)
let create ~dummy () =
  {
    key = Array.make sentinels 0;
    (* sentinels start self-linked: every bucket empty *)
    prev = Array.init sentinels Fun.id;
    next = Array.init sentinels Fun.id;
    pos = Array.make sentinels (-1);
    gen = Array.make sentinels 0;
    value = Array.make sentinels dummy;
    free = Array.make sentinels 0;
    nfree = 0;
    occupancy = Array.make levels 0;
    level_occ = 0;
    cur = 0;
    live = 0;
    settled = -1;
    min_memo = -1;
    dummy;
  }

let live t = t.live
let is_empty t = t.live = 0
let horizon t = t.cur
let capacity t = Array.length t.key - sentinels

(* Double every array; the new entries go on the free stack, lowest index
   on top. *)
let grow t =
  let cap = Array.length t.key in
  let ncap = 2 * cap in
  if ncap > idx_mask + 1 then failwith "Timer_wheel: too many entries";
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.key <- extend t.key 0;
  t.prev <- extend t.prev 0;
  t.next <- extend t.next 0;
  t.pos <- extend t.pos (-1);
  t.gen <- extend t.gen 0;
  t.value <- extend t.value t.dummy;
  t.free <- extend t.free 0;
  for i = ncap - 1 downto cap do
    t.free.(t.nfree) <- i;
    t.nfree <- t.nfree + 1
  done

let fresh t =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  t.free.(t.nfree)

(* A non-timer entry drops its payload, gets a new generation, which
   invalidates its handles, and goes back on the free stack.  A timer
   keeps its payload for the next [arm]. *)
let release t i =
  let g = t.gen.(i) in
  if g land 1 = 0 then begin
    t.value.(i) <- t.dummy;
    t.gen.(i) <- (g + 2) land gen_mask;
    t.free.(t.nfree) <- i;
    t.nfree <- t.nfree + 1
  end

let handle_of t i = (t.gen.(i) lsl idx_bits) lor i

(* The entry [h] names, or -1 when its generation has moved on. *)
let index t h =
  let i = h land idx_mask in
  if i >= sentinels && i < Array.length t.gen && t.gen.(i) = h lsr idx_bits
  then i
  else -1

let is_live t h =
  let i = index t h in
  i >= 0 && t.pos.(i) >= 0

(* Level at which an entry with deadline [key] lives, given current time
   [cur]: the index of the 5-bit digit group containing the highest bit in
   which key and cur differ (0 when key = cur).  Near deadlines dominate,
   so the thresholds are tested from the bottom. *)
let rec level_of x l bound =
  if l = levels - 1 || x < bound then l
  else level_of x (l + 1) (bound lsl slot_bits)

let level_for t key = level_of (key lxor t.cur) 0 slots

(* Index of the least-significant set bit of a non-zero word of at most
   32 bits (a level's slot bitmap or the level summary): isolate it and
   look its de Bruijn product up. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_set_bit x =
  Array.unsafe_get debruijn
    ((((x land (-x)) * 0x077CB531) land 0xFFFF_FFFF) lsr 27)

let place t i =
  let key = t.key.(i) in
  let level = level_for t key in
  let slot = (key lsr (slot_bits * level)) land slot_mask in
  let s = (level * slots) + slot in
  t.pos.(i) <- s;
  (* insert before the sentinel = append at tail, preserving insertion order *)
  let prev = t.prev and next = t.next in
  let last = prev.(s) in
  prev.(i) <- last;
  next.(i) <- s;
  next.(last) <- i;
  prev.(s) <- i;
  t.occupancy.(level) <- t.occupancy.(level) lor (1 lsl slot);
  t.level_occ <- t.level_occ lor (1 lsl level)

let clear_slot t level slot =
  let occ = t.occupancy.(level) land lnot (1 lsl slot) in
  t.occupancy.(level) <- occ;
  if occ = 0 then t.level_occ <- t.level_occ land lnot (1 lsl level)

(* Unlink a live entry and forget it in the counts. *)
let unlink t i =
  let prev = t.prev and next = t.next in
  let p = prev.(i) and n = next.(i) in
  next.(p) <- n;
  prev.(n) <- p;
  let s = t.pos.(i) in
  if next.(s) = s then clear_slot t (s lsr slot_bits) (s land slot_mask);
  t.pos.(i) <- -1;
  t.live <- t.live - 1;
  if t.key.(i) = t.min_memo then t.min_memo <- -1

(* Link a detached entry at [key]; the caller has checked [key >= cur]. *)
let link t i ~key v =
  t.key.(i) <- key;
  if t.value.(i) != v then t.value.(i) <- v;
  place t i;
  if t.live = 0 then t.min_memo <- key
  else if t.min_memo >= 0 && key < t.min_memo then t.min_memo <- key;
  t.live <- t.live + 1

let add t ~key v =
  if key < t.cur then invalid_arg "Timer_wheel: key is in the past";
  let i = fresh t in
  link t i ~key v;
  handle_of t i

let timer t =
  let i = fresh t in
  t.gen.(i) <- t.gen.(i) lor 1;
  handle_of t i

let arm t h ~key v =
  let i = index t h in
  if i < 0 || t.gen.(i) land 1 = 0 then
    invalid_arg "Timer_wheel.arm: not a timer handle";
  if key < t.cur then invalid_arg "Timer_wheel: key is in the past";
  if t.pos.(i) >= 0 then unlink t i;
  link t i ~key v

let cancel t h =
  let i = index t h in
  if i >= 0 && t.pos.(i) >= 0 then begin
    unlink t i;
    release t i
  end

(* Move every entry of bucket [level].[slot] down to its proper lower
   level.  Precondition: [t.cur] has been advanced so that the bucket's
   window starts at or before cur's window at this level, i.e. every entry
   now maps to a strictly lower level.  Traversal preserves list order. *)
let rec drain t s i =
  if i <> s then begin
    let next = t.next.(i) in
    place t i;
    drain t s next
  end

let cascade t level slot =
  let s = (level * slots) + slot in
  clear_slot t level slot;
  let first = t.next.(s) in
  t.next.(s) <- s;
  t.prev.(s) <- s;
  drain t s first

(* Advance [cur] to the earliest live deadline, cascading higher-level
   buckets as needed, and return the sentinel of a bucket whose head is
   the minimum: a level-0 bucket, or a higher one holding that entry
   alone.  Precondition: [live > 0]. *)
let rec settle t =
  let s = t.settled in
  if s >= 0 && t.next.(s) <> s then s
  else begin
    (* lowest non-empty level, via the level-occupancy summary bitmap *)
    let l = lowest_set_bit t.level_occ in
    let slot = lowest_set_bit t.occupancy.(l) in
    let s = (l * slots) + slot in
    let first = t.next.(s) in
    if l = 0 || t.next.(first) = s then begin
      (* Every entry in a level-0 bucket shares one exact deadline.  A
         lone entry higher up is the unique minimum (an equal key would
         share its bucket), so it pops where it sits: moving [cur] to its
         key changes only digits <= l, which moves no other entry to
         another level. *)
      t.cur <- t.key.(first);
      t.settled <- s;
      s
    end
    else begin
      (* jump cur to the start of that bucket's window, then cascade; the
         top level has no digits above it (and a shift by 65 bits is
         unspecified, in practice a shift by 1) *)
      let high =
        if l = levels - 1 then 0
        else (t.cur lsr (slot_bits * (l + 1))) lsl (slot_bits * (l + 1))
      in
      t.cur <- high lor (slot lsl (slot_bits * l));
      cascade t l slot;
      t.settled <- -1;
      settle t
    end
  end

(* The lowest occupied bucket holds the smallest live key: lower levels
   and lower slots hold strictly earlier deadlines.  Precondition:
   [live > 0]. *)
let lowest_bucket t =
  let l = lowest_set_bit t.level_occ in
  (l * slots) + lowest_set_bit t.occupancy.(l)

let rec scan t s i m =
  if i = s then m else scan t s t.next.(i) (Int.min m t.key.(i))

(* The smallest live key, without moving [cur]: a level-0 bucket is one
   exact deadline, a higher one is scanned.  Memoised until a link,
   cancel or pop can change it. *)
let min_key t =
  if t.live = 0 then max_int
  else if t.min_memo >= 0 then t.min_memo
  else begin
    let s = lowest_bucket t in
    let first = t.next.(s) in
    let m = if s < slots then t.key.(first) else scan t s first max_int in
    t.min_memo <- m;
    m
  end

let pop t =
  if t.live = 0 then invalid_arg "Timer_wheel.pop: empty";
  let i = t.next.(settle t) in
  unlink t i;
  t.min_memo <- -1;
  let v = t.value.(i) in
  release t i;
  v

let peek_min t =
  if t.live = 0 then None
  else begin
    let k = min_key t in
    (* the first entry at the minimum key in the lowest occupied bucket is
       the one [pop] would return: bucket lists keep insertion order *)
    let rec first i = if t.key.(i) = k then t.value.(i) else first t.next.(i) in
    Some (k, first t.next.(lowest_bucket t))
  end

let pop_min t =
  if t.live = 0 then None
  else begin
    let v = pop t in
    Some (t.cur, v)
  end
