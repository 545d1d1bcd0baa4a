(* A bounded, string-keyed cache for derived state that can always be
   rebuilt (the dispatcher's flow-path chains): a CLOCK ring that grows
   geometrically up to its capacity and then evicts the first entry its
   hand finds with a clear reference bit, so an overflow costs one
   entry, never the whole cache.  The index compares keys with
   [String.equal], never the polymorphic compare; [String.hash] is
   [Hashtbl.hash], so its buckets are the generic table's. *)

module Index = Hashtbl.Make (String)

type 'v slot = {
  mutable s_key : string;
  mutable s_value : 'v option; (* None = free *)
  mutable s_ref : bool;
}

type 'v t = {
  mutable slots : 'v slot array;
  index : int Index.t; (* key -> slot number *)
  mutable hand : int;
  mutable used : int;
  mutable free : int list; (* slots never used, and holes left by [remove] *)
  cap : int;
  evictions : int ref;
}

let fresh_slot () = { s_key = ""; s_value = None; s_ref = false }

let create ~capacity ?evictions () =
  {
    slots = Array.init 8 (fun _ -> fresh_slot ());
    index = Index.create 16;
    hand = 0;
    used = 0;
    free = List.init 8 Fun.id;
    cap = Int.max 8 capacity;
    evictions = (match evictions with Some r -> r | None -> ref 0);
  }

let find_or t key absent =
  match Index.find t.index key with
  | exception Not_found -> absent
  | i -> (
      let s = t.slots.(i) in
      s.s_ref <- true;
      match s.s_value with Some v -> v | None -> absent)

let remove t key =
  match Index.find_opt t.index key with
  | None -> ()
  | Some i ->
      Index.remove t.index key;
      let s = t.slots.(i) in
      s.s_key <- "";
      s.s_value <- None;
      s.s_ref <- false;
      t.used <- t.used - 1;
      t.free <- i :: t.free

let grow t =
  let old = Array.length t.slots in
  let slots = Array.init (old * 2) (fun i ->
      if i < old then t.slots.(i) else fresh_slot ())
  in
  t.slots <- slots;
  t.free <- List.init old (fun i -> old + i) @ t.free

(* CLOCK: sweep from the hand, clearing reference bits, until a slot
   with a clear bit turns up.  Bounded by two revolutions. *)
let evict t =
  let n = Array.length t.slots in
  let rec sweep steps =
    if steps > 2 * n then invalid_arg "Clock_cache: no evictable slot"
    else begin
      let i = t.hand in
      t.hand <- (t.hand + 1) mod n;
      let s = t.slots.(i) in
      match s.s_value with
      | None -> sweep (steps + 1)
      | Some _ ->
          if s.s_ref then begin
            s.s_ref <- false;
            sweep (steps + 1)
          end
          else begin
            Index.remove t.index s.s_key;
            s.s_key <- "";
            s.s_value <- None;
            t.used <- t.used - 1;
            incr t.evictions;
            i
          end
    end
  in
  sweep 0

let put t key value =
  match Index.find_opt t.index key with
  | Some i ->
      let s = t.slots.(i) in
      s.s_value <- Some value;
      s.s_ref <- true
  | None ->
      let i =
        match t.free with
        | i :: rest ->
            t.free <- rest;
            i
        | [] ->
            if Array.length t.slots < t.cap then begin
              grow t;
              match t.free with
              | i :: rest ->
                  t.free <- rest;
                  i
              | [] -> assert false
            end
            else evict t
      in
      let s = t.slots.(i) in
      s.s_key <- key;
      s.s_value <- Some value;
      s.s_ref <- true;
      Index.replace t.index key i;
      t.used <- t.used + 1

let length t = t.used
let capacity t = t.cap
let evictions t = !(t.evictions)
