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

   Each bucket is a circular doubly-linked list with a sentinel, so cancel
   unlinks in O(1) and drops the payload eagerly — no closure is retained
   past cancellation.  The node is the whole per-entry record: nothing is
   boxed around it, [pop] hands it back as is, and a pooled node goes back
   to the wheel's free stack once its payload has been read.

   Order invariant: every entry whose deadline lies within the current
   level-(l+1) bucket window is stored at level <= l, because the cascade
   pulls a window's entries down exactly when [cur] enters it and [cur]
   only moves forward.  Hence a direct add into a bucket always comes after
   anything cascaded there earlier, cascading preserves list order, and
   bucket lists stay in insertion order: popping the head of the lowest
   occupied slot reproduces heap order exactly.

   [cur] moves only inside [pop], to the key it returns.  Looking ahead
   ([min_key]) reads the wheel without cascading, so [cur] never passes an
   instant that has not been popped: any key at or after the last pop is
   accepted, and a caller whose clock follows the pops needs no side queue
   for deadlines it schedules after a look-ahead. *)

let slot_bits = 5
let slots = 1 lsl slot_bits (* 32 *)
let slot_mask = slots - 1
let levels = 13 (* 13 * 5 = 65 bits: covers any non-negative OCaml int key *)

type 'a node = {
  mutable key : int;
  mutable value : 'a; (* the wheel's [dummy] when empty *)
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable pos : int; (* level * slots + slot while linked; -1 detached *)
  owner : 'a t;
  pooled : bool; (* returns to [owner]'s free stack on [release] *)
}

and 'a t = {
  nil : 'a node; (* link target of detached nodes *)
  mutable buckets : 'a node array; (* [level * slots + slot] -> sentinel *)
  occupancy : int array; (* per-level bitmap of non-empty slots *)
  mutable level_occ : int; (* bitmap of levels with any non-empty slot *)
  mutable cur : int; (* key of the last pop; all live keys are >= cur *)
  mutable live : int;
  mutable settled : int;
      (* memo of the last [settle] result: the level-0 bucket holding the
         minimum, or -1.  Valid while that bucket is non-empty: its one
         deadline is [cur], which no live key undercuts, and a later add
         at [cur] queues behind its nodes. *)
  mutable min_memo : int; (* smallest live key when known, else -1 *)
  dummy : 'a;
  mutable free : 'a node array; (* recycled pooled nodes *)
  mutable nfree : int;
}

(* A detached node's links point at [t.nil]; only sentinels (and [nil]
   itself) are built self-linked, since a recursive record definition
   costs a second allocation. *)
let detached t ~pooled =
  { key = 0; value = t.dummy; prev = t.nil; next = t.nil; pos = -1; owner = t;
    pooled }

let self_linked t =
  let rec s =
    { key = 0; value = t.dummy; prev = s; next = s; pos = -1; owner = t;
      pooled = false }
  in
  s

let create ~dummy () =
  let rec t =
    {
      nil;
      buckets = [||];
      occupancy = Array.make levels 0;
      level_occ = 0;
      cur = 0;
      live = 0;
      settled = -1;
      min_memo = -1;
      dummy;
      free = [||];
      nfree = 0;
    }
  and nil =
    { key = 0; value = dummy; prev = nil; next = nil; pos = -1; owner = t;
      pooled = false }
  in
  t.buckets <- Array.init (levels * slots) (fun _ -> self_linked t);
  t

let live t = t.live
let is_empty t = t.live = 0
let horizon t = t.cur
let key n = n.key
let value n = n.value
let is_live n = n.pos >= 0

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

let place t node =
  let level = level_for t node.key in
  let slot = (node.key lsr (slot_bits * level)) land slot_mask in
  let pos = (level * slots) + slot in
  node.pos <- pos;
  let s = t.buckets.(pos) in
  (* insert before the sentinel = append at tail, preserving insertion order *)
  node.prev <- s.prev;
  node.next <- s;
  s.prev.next <- node;
  s.prev <- node;
  t.occupancy.(level) <- t.occupancy.(level) lor (1 lsl slot);
  t.level_occ <- t.level_occ lor (1 lsl level)

let unlink t node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev;
  let s = t.buckets.(node.pos) in
  if s.next == s then begin
    let level = node.pos lsr slot_bits and slot = node.pos land slot_mask in
    t.occupancy.(level) <- t.occupancy.(level) land lnot (1 lsl slot);
    if t.occupancy.(level) = 0 then
      t.level_occ <- t.level_occ land lnot (1 lsl level)
  end;
  node.pos <- -1;
  node.prev <- t.nil;
  node.next <- t.nil

(* Drop a payload and, for a pooled node, hand the record back. *)
let release node =
  let t = node.owner in
  node.value <- t.dummy;
  if node.pooled then begin
    if t.nfree = Array.length t.free then begin
      let bigger = Array.make (max 16 (2 * t.nfree)) node in
      Array.blit t.free 0 bigger 0 t.nfree;
      t.free <- bigger
    end;
    t.free.(t.nfree) <- node;
    t.nfree <- t.nfree + 1
  end

let cancel node =
  if node.pos >= 0 then begin
    let t = node.owner in
    unlink t node;
    t.live <- t.live - 1;
    if node.key = t.min_memo then t.min_memo <- -1;
    node.value <- t.dummy
  end

(* Link a detached node at [key]; a live node is moved. *)
let arm node ~key v =
  let t = node.owner in
  if key < t.cur then invalid_arg "Timer_wheel.arm: key is in the past";
  cancel node;
  node.key <- key;
  node.value <- v;
  place t node;
  if t.live = 0 then t.min_memo <- key
  else if t.min_memo >= 0 && key < t.min_memo then t.min_memo <- key;
  t.live <- t.live + 1

let node t = detached t ~pooled:false

let add t ~key v =
  let n = detached t ~pooled:false in
  arm n ~key v;
  n

let post t ~key v =
  let n =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else detached t ~pooled:true
  in
  arm n ~key v

(* Move every node of bucket [level].[slot] down to its proper lower level.
   Precondition: [t.cur] has been advanced so that the bucket's window
   starts at or before cur's window at this level, i.e. every node now maps
   to a strictly lower level.  Traversal preserves list order. *)
let rec drain t s node =
  if node != s then begin
    let next = node.next in
    place t node;
    drain t s next
  end

let cascade t level slot =
  let s = t.buckets.((level * slots) + slot) in
  t.occupancy.(level) <- t.occupancy.(level) land lnot (1 lsl slot);
  if t.occupancy.(level) = 0 then
    t.level_occ <- t.level_occ land lnot (1 lsl level);
  let first = s.next in
  s.next <- s;
  s.prev <- s;
  drain t s first

(* Advance [cur] to the earliest live deadline, cascading higher-level
   buckets as needed, and return the sentinel of the level-0 bucket
   holding the minimum.  Precondition: [live > 0]. *)
let rec settle t =
  if t.settled >= 0 && t.buckets.(t.settled).next != t.buckets.(t.settled)
  then t.buckets.(t.settled)
  else begin
    (* lowest non-empty level, via the level-occupancy summary bitmap *)
    let l = lowest_set_bit t.level_occ in
    let slot = lowest_set_bit t.occupancy.(l) in
    if l = 0 then begin
      let s = t.buckets.(slot) in
      (* every node in a level-0 bucket shares one exact deadline *)
      t.cur <- s.next.key;
      t.settled <- slot;
      s
    end
    else begin
      (* jump cur to the start of that bucket's window, then cascade *)
      let high = (t.cur lsr (slot_bits * (l + 1))) lsl (slot_bits * (l + 1)) in
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
  t.buckets.((l * slots) + lowest_set_bit t.occupancy.(l))

let rec scan s n m = if n == s then m else scan s n.next (Int.min m n.key)

(* The smallest live key, without moving [cur]: a level-0 bucket is one
   exact deadline, a higher one is scanned.  Memoised until a link,
   cancel or pop can change it. *)
let min_key t =
  if t.live = 0 then max_int
  else if t.min_memo >= 0 then t.min_memo
  else begin
    let s = lowest_bucket t in
    let first = s.next in
    let m = if first.pos < slots then first.key else scan s first.next first.key in
    t.min_memo <- m;
    m
  end

let pop t =
  if t.live = 0 then invalid_arg "Timer_wheel.pop: empty";
  let node = (settle t).next in
  unlink t node;
  t.live <- t.live - 1;
  t.min_memo <- -1;
  node

let peek_min t =
  if t.live = 0 then None
  else begin
    let k = min_key t in
    (* the first node at the minimum key in the lowest occupied bucket is
       the one [pop] would return: bucket lists keep insertion order *)
    let rec first n = if n.key = k then n.value else first n.next in
    Some (k, first (lowest_bucket t).next)
  end

let pop_min t =
  if t.live = 0 then None
  else begin
    let n = pop t in
    let r = Some (n.key, n.value) in
    release n;
    r
  end
