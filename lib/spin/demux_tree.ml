(* The merged demux tree (DPF-style cross-filter compilation): all of an
   event's keyed handlers merged into one decision tree over the key
   dimensions (EtherType, IP protocol, ports — [Filter.key_tag] order;
   generic events use [key lsr 16]).  Each switch tests one dimension's
   payload value against an open-addressed jump table; each leaf holds
   the exact handler set for that path.  Every raise makes one walk:
   handlers whose guard is *exactly* its keys are proven matches at
   their leaves and their closures are never called; inexact keyed
   handlers appear at their leaves as residuals (closure still
   consulted); unkeyed handlers, and keyed ones whose keys the tree
   cannot express, are residuals at every leaf.  Wildcard handlers are
   cross-producted into every value child, so a walk never needs
   backtracking.  Subtrees are hash-consed on (remaining dimensions,
   handler set), which is the prefix sharing: paths that agree on the
   handlers they can still match share one subtree.

   Soundness: a keyed handler's install contract says its guard rejects
   any payload not presenting all its keys, so pruning it off
   non-matching paths only skips guards that would have said no; an
   exact handler's contract additionally says the guard *accepts* any
   payload presenting them, so the proven path may skip the yes.  The
   walk reads at most one value per dimension, which is exactly what the
   dispatcher's vectored key extractor presents. *)

type 'h member = {
  id : int;
  keys : int list;
  exact : bool;
  cacheable : bool;
  handler : 'h;
}

type 'h leaf = {
  tl_exact : 'h array;  (* proven matches, id order *)
  tl_resid : 'h array;  (* residual guards to evaluate, id order *)
  tl_cacheable : bool;  (* every handler here is cacheable *)
}

type 'h node =
  | Tleaf of 'h leaf
  | Tswitch of {
      ts_dim : int;              (* key dimension this switch tests *)
      ts_keys : int array;       (* open-addressed values, -1 = empty *)
      ts_kids : 'h node array;   (* child for ts_keys.(i) *)
      ts_mask : int;             (* Array.length ts_keys - 1 (power of 2) *)
      ts_default : 'h node;      (* value not in the table / dim absent *)
    }

type 'h t = {
  tr_root : 'h node;
  tr_nodes : int;   (* switches + distinct leaves *)
  tr_depth : int;   (* longest switch chain *)
  tr_ndims : int;   (* scratch slots a walk reads: max key dim + 1 *)
  mutable tr_visited : int;
      (* switches the last walk traversed — an out-parameter of [walk]
         so the hot path returns the leaf unboxed (a tree belongs to one
         single-domain dispatcher, so this cannot race) *)
}

let ndims tr = tr.tr_ndims
let visited tr = tr.tr_visited
let exact l = l.tl_exact
let resid l = l.tl_resid
let cacheable l = l.tl_cacheable
let nodes tr = tr.tr_nodes
let depth tr = tr.tr_depth

(* Decomposition of an encoded key into (dimension, value).  For
   [Filter] keys this is [key_tag]/value; for generic raw int keys the
   decomposition is the identity seen from both sides (handler keys and
   extractor output decompose the same way), so the tree's dimension
   model is sound for them too. *)
let key_dim k = k lsr 16
let key_val k = k land 0xffff

(* Open-addressed jump-table probe: returns the slot holding [v] or the
   first empty slot.  Power-of-two table, Fibonacci-ish multiplicative
   hash, linear probing; load factor <= 1/2 keeps probes short. *)
let rec jump_probe keys mask v i =
  let k = Array.unsafe_get keys i in
  if k = v || k = -1 then i else jump_probe keys mask v ((i + 1) land mask)

let jump_index keys mask v = jump_probe keys mask v ((v * 0x9e3779b1) land mask)

(* Keys the tree can switch on: a dimension below this bound and a
   non-negative value.  The walk's scratch array is sized by the max
   dimension, so a generic event with huge raw keys should not cost a
   huge probe; a handler with any other key is a residual everywhere. *)
let max_tree_dims = 64

let tree_key k = k >= 0 && key_dim k < max_tree_dims

(* The one compile rule.  Switches are built only when the event has a
   key extractor, more than one handler and at least one handler whose
   keys the tree can express; otherwise the tree is a single leaf
   holding every handler as a residual, in id order, which charges
   exactly the plain scan's [dispatch + guard * n]. *)
let compile ~extractor members =
  let all = List.sort (fun a b -> Int.compare a.id b.id) members in
  let switchable = extractor && List.compare_length_with all 1 > 0 in
  let keyed, unkeyed =
    List.partition
      (fun m -> switchable && m.keys <> [] && List.for_all tree_key m.keys)
      all
  in
  (* the single value a member requires on dimension [d], if any *)
  let requires m d =
    List.fold_left
      (fun acc k -> if key_dim k = d then Some (key_val k) else acc)
      None m.keys
  in
  (* a member pinning two different values on one dimension can never
     match any payload (the walk reads one value per dimension) — it
     contributes to no leaf *)
  let satisfiable m =
    List.for_all (fun k -> requires m (key_dim k) = Some (key_val k)) m.keys
  in
  let keyed = List.filter satisfiable keyed in
  let dims =
    List.concat_map (fun m -> List.map key_dim m.keys) keyed
    |> List.sort_uniq compare
  in
  let nodes = ref 0 in
  (* hash-consing memo: (remaining-dim count, member ids) -> subtree.
     Dimensions are consumed in one fixed order, so the remaining-dims
     suffix is fully determined by its length. *)
  let memo : (string, 'h node) Hashtbl.t = Hashtbl.create 64 in
  let merge_by_id a b = List.merge (fun x y -> Int.compare x.id y.id) a b in
  let handlers ms = Array.of_list (List.map (fun m -> m.handler) ms) in
  let mk_leaf ms =
    incr nodes;
    let exact, inexact = List.partition (fun m -> m.exact) ms in
    let resid = merge_by_id inexact unkeyed in
    Tleaf
      {
        tl_exact = handlers exact;
        tl_resid = handlers resid;
        tl_cacheable =
          List.for_all (fun m -> m.cacheable) exact
          && List.for_all (fun m -> m.cacheable) resid;
      }
  in
  let rec build dims ms =
    let mkey =
      String.concat ","
        (string_of_int (List.length dims)
        :: List.map (fun m -> string_of_int m.id) ms)
    in
    match Hashtbl.find_opt memo mkey with
    | Some n -> n
    | None ->
        let n =
          match dims with
          | [] -> mk_leaf ms
          | d :: rest -> (
              match List.filter (fun m -> requires m d <> None) ms with
              | [] -> build rest ms (* no member tests this dimension *)
              | constrained ->
                  let values =
                    List.filter_map (fun m -> requires m d) constrained
                    |> List.sort_uniq compare
                  in
                  (* wildcards on [d] flow into every child (the
                     cross-product that makes the walk single-path) *)
                  let default =
                    build rest (List.filter (fun m -> requires m d = None) ms)
                  in
                  let cases =
                    List.map
                      (fun v ->
                        ( v,
                          build rest
                            (List.filter
                               (fun m ->
                                 match requires m d with
                                 | None -> true
                                 | Some v' -> v' = v)
                               ms) ))
                      values
                  in
                  incr nodes;
                  let size =
                    let want = 2 * List.length cases in
                    let rec pow2 p = if p >= want then p else pow2 (p * 2) in
                    pow2 4
                  in
                  let keys = Array.make size (-1) in
                  let kids = Array.make size default in
                  let mask = size - 1 in
                  List.iter
                    (fun (v, node) ->
                      let i = jump_index keys mask v in
                      keys.(i) <- v;
                      kids.(i) <- node)
                    cases;
                  Tswitch
                    {
                      ts_dim = d;
                      ts_keys = keys;
                      ts_kids = kids;
                      ts_mask = mask;
                      ts_default = default;
                    })
        in
        Hashtbl.add memo mkey n;
        n
  in
  let root = build dims keyed in
  let rec depth = function
    | Tleaf _ -> 0
    | Tswitch s ->
        1
        + Array.fold_left
            (fun acc kid -> max acc (depth kid))
            (depth s.ts_default) s.ts_kids
  in
  {
    tr_root = root;
    tr_nodes = !nodes;
    tr_depth = depth root;
    tr_ndims = List.fold_left max (-1) dims + 1;
    tr_visited = 0;
  }

(* One walk: at each switch read the payload's value for that dimension
   from the key array and jump.  Returns the leaf and leaves the number
   of switches visited (the dispatcher's [costs.tree_node] multiplier)
   in [tr_visited].  The loop is a top-level function so a walk
   allocates no closure. *)
let rec walk_from tr s n visited =
  match n with
  | Tleaf l ->
      tr.tr_visited <- visited;
      l
  | Tswitch sw ->
      let value =
        if sw.ts_dim < Array.length s then Array.unsafe_get s sw.ts_dim
        else -1
      in
      let next =
        if value < 0 then sw.ts_default
        else
          let i = jump_index sw.ts_keys sw.ts_mask value in
          if Array.unsafe_get sw.ts_keys i = value then
            Array.unsafe_get sw.ts_kids i
          else sw.ts_default
      in
      walk_from tr s next (visited + 1)

let walk tr s = walk_from tr s tr.tr_root 0

type view =
  | Tree_leaf of {
      tv_exact : (int * string) list;
      tv_resid : (int * string) list;
    }
  | Tree_switch of {
      tv_dim : int;
      tv_cases : (int * view) list;
      tv_default : view;
    }

let view label_of tr =
  let rec view = function
    | Tleaf l ->
        Tree_leaf
          {
            tv_exact = Array.to_list (Array.map label_of l.tl_exact);
            tv_resid = Array.to_list (Array.map label_of l.tl_resid);
          }
    | Tswitch sw ->
        let cases = ref [] in
        Array.iteri
          (fun i k ->
            if k >= 0 then cases := (k, view sw.ts_kids.(i)) :: !cases)
          sw.ts_keys;
        Tree_switch
          {
            tv_dim = sw.ts_dim;
            tv_cases = List.sort (fun (a, _) (b, _) -> compare a b) !cases;
            tv_default = view sw.ts_default;
          }
  in
  view tr.tr_root
