(* A bounded, string-keyed cache for derived state that can always be
   rebuilt (the dispatcher's flow-path chains).  Keys are split over a
   power-of-two number of shards by hash; each shard is a CLOCK ring that
   grows geometrically up to a per-shard capacity and then evicts the
   first entry its hand finds with a clear reference bit, so an overflow
   costs one entry, never the whole cache. *)

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

module Cache = struct
  type 'v slot = {
    mutable s_key : string;
    mutable s_value : 'v option; (* None = free *)
    mutable s_ref : bool;
  }

  type 'v shard = {
    mutable slots : 'v slot array;
    index : (string, int) Hashtbl.t; (* key -> slot number *)
    mutable hand : int;
    mutable used : int;
    mutable free : int list; (* holes left by [remove] *)
  }

  type 'v t = {
    cshards : 'v shard array;
    cmask : int;
    per_shard : int; (* capacity ceiling per shard *)
    evictions : int ref;
  }

  let fresh_slot () = { s_key = ""; s_value = None; s_ref = false }

  let create ?(shards = 16) ?(per_shard = 8192) ?evictions () =
    let n = round_pow2 (max 1 shards) in
    let evictions = match evictions with Some r -> r | None -> ref 0 in
    {
      cshards =
        Array.init n (fun _ ->
            {
              slots = Array.init 8 (fun _ -> fresh_slot ());
              index = Hashtbl.create 16;
              hand = 0;
              used = 0;
              free = List.init 8 Fun.id;
            });
      cmask = n - 1;
      per_shard = max 8 per_shard;
      evictions;
    }

  let shard t key = t.cshards.(Hashtbl.hash key land t.cmask)

  let find_or t key absent =
    let sh = shard t key in
    match Hashtbl.find sh.index key with
    | exception Not_found -> absent
    | i -> (
        let s = sh.slots.(i) in
        s.s_ref <- true;
        match s.s_value with Some v -> v | None -> absent)

  let remove t key =
    let sh = shard t key in
    match Hashtbl.find_opt sh.index key with
    | None -> ()
    | Some i ->
        Hashtbl.remove sh.index key;
        let s = sh.slots.(i) in
        s.s_key <- "";
        s.s_value <- None;
        s.s_ref <- false;
        sh.used <- sh.used - 1;
        sh.free <- i :: sh.free

  let grow sh =
    let old = Array.length sh.slots in
    let slots = Array.init (old * 2) (fun i ->
        if i < old then sh.slots.(i) else fresh_slot ())
    in
    sh.slots <- slots;
    sh.free <- List.init old (fun i -> old + i) @ sh.free

  (* CLOCK: sweep from the hand, clearing reference bits, until a slot
     with a clear bit turns up.  Bounded by two revolutions. *)
  let evict t sh =
    let n = Array.length sh.slots in
    let rec sweep steps =
      if steps > 2 * n then invalid_arg "Sharded.Cache: no evictable slot"
      else begin
        let i = sh.hand in
        sh.hand <- (sh.hand + 1) mod n;
        let s = sh.slots.(i) in
        match s.s_value with
        | None -> sweep (steps + 1)
        | Some _ ->
            if s.s_ref then begin
              s.s_ref <- false;
              sweep (steps + 1)
            end
            else begin
              Hashtbl.remove sh.index s.s_key;
              s.s_key <- "";
              s.s_value <- None;
              sh.used <- sh.used - 1;
              incr t.evictions;
              i
            end
      end
    in
    sweep 0

  let put t key value =
    let sh = shard t key in
    match Hashtbl.find_opt sh.index key with
    | Some i ->
        let s = sh.slots.(i) in
        s.s_value <- Some value;
        s.s_ref <- true
    | None ->
        let i =
          match sh.free with
          | i :: rest ->
              sh.free <- rest;
              i
          | [] ->
              if Array.length sh.slots < t.per_shard then begin
                grow sh;
                match sh.free with
                | i :: rest ->
                    sh.free <- rest;
                    i
                | [] -> assert false
              end
              else evict t sh
        in
        let s = sh.slots.(i) in
        s.s_key <- key;
        s.s_value <- Some value;
        s.s_ref <- true;
        Hashtbl.replace sh.index key i;
        sh.used <- sh.used + 1

  let length t =
    Array.fold_left (fun acc sh -> acc + sh.used) 0 t.cshards

  let capacity t = Array.length t.cshards * t.per_shard
  let shard_count t = Array.length t.cshards
  let evictions t = !(t.evictions)

  let reset t =
    Array.iter
      (fun sh ->
        Hashtbl.reset sh.index;
        Array.iter
          (fun s ->
            s.s_key <- "";
            s.s_value <- None;
            s.s_ref <- false)
          sh.slots;
        sh.hand <- 0;
        sh.used <- 0;
        sh.free <- [])
      t.cshards
end
