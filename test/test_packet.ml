(* Tests for the packet substrate: views (the VIEW operator analogue),
   Internet checksums and mbufs. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

(* ---- View ----------------------------------------------------------- *)

let view_roundtrip () =
  let v = View.create 16 in
  View.set_u8 v 0 0xab;
  View.set_u16 v 1 0xbeef;
  View.set_u32 v 3 0xdeadbeef;
  View.set_string v ~off:8 "hello";
  Alcotest.(check int) "u8" 0xab (View.get_u8 v 0);
  Alcotest.(check int) "u16" 0xbeef (View.get_u16 v 1);
  Alcotest.(check int) "u32" 0xdeadbeef (View.get_u32 v 3);
  Alcotest.(check string) "string" "hello" (View.get_string v ~off:8 ~len:5)

let view_big_endian () =
  let v = View.create 4 in
  View.set_u32 v 0 0x01020304;
  Alcotest.(check int) "network byte order" 0x01 (View.get_u8 v 0);
  Alcotest.(check int) "second byte" 0x02 (View.get_u8 v 1);
  Alcotest.(check int) "u16 at 2" 0x0304 (View.get_u16 v 2)

let view_bounds () =
  let v = View.create 4 in
  let expect_oob f =
    match f () with
    | exception View.Out_of_bounds _ -> ()
    | _ -> Alcotest.fail "expected Out_of_bounds"
  in
  expect_oob (fun () -> View.get_u8 v 4);
  expect_oob (fun () -> View.get_u16 v 3);
  expect_oob (fun () -> View.get_u32 v 1);
  expect_oob (fun () -> View.get_u8 v (-1));
  expect_oob (fun () -> View.set_u16 v 3 0);
  expect_oob (fun () -> View.sub v ~off:2 ~len:3);
  expect_oob (fun () -> View.get_string v ~off:2 ~len:3)

let view_sub_shift () =
  let v = View.of_bytes ~off:0 ~len:8 (Bytes.of_string "abcdefgh") in
  let s = View.sub v ~off:2 ~len:4 in
  Alcotest.(check int) "sub length" 4 (View.length s);
  Alcotest.(check string) "sub content" "cdef" (View.to_string s);
  let sh = View.shift v 5 in
  Alcotest.(check string) "shift" "fgh" (View.to_string sh);
  (* a sub of a sub stays anchored correctly *)
  let ss = View.sub s ~off:1 ~len:2 in
  Alcotest.(check string) "nested sub" "de" (View.to_string ss)

let view_sub_shares_bytes () =
  let v = View.create 8 in
  let s = View.sub v ~off:4 ~len:4 in
  View.set_u8 s 0 0x7f;
  Alcotest.(check int) "writes visible through parent" 0x7f (View.get_u8 v 4)

let view_copy_isolates () =
  let v = View.create 4 in
  View.set_u8 v 0 1;
  let c = View.copy v in
  View.set_u8 c 0 9;
  Alcotest.(check int) "original untouched" 1 (View.get_u8 v 0);
  Alcotest.(check int) "copy changed" 9 (View.get_u8 c 0)

let view_blit_fill () =
  let src = View.of_bytes ~off:0 ~len:10 (Bytes.of_string "0123456789") in
  let dst = View.create 10 in
  View.blit ~src ~dst ~src_off:2 ~dst_off:0 ~len:4;
  Alcotest.(check string) "blit" "2345" (View.get_string dst ~off:0 ~len:4);
  View.fill dst 'z';
  Alcotest.(check string) "fill" "zzzzzzzzzz" (View.to_string dst)

let view_fold () =
  let v = View.of_string "\001\002\003" in
  Alcotest.(check int) "fold sum" 6 (View.fold_u8 ( + ) 0 v)

let view_of_bytes_window () =
  let b = Bytes.of_string "abcdef" in
  let v = View.of_bytes ~off:1 ~len:3 b in
  Alcotest.(check string) "window" "bcd" (View.to_string v);
  Alcotest.check_raises "bad window"
    (Invalid_argument "View.of_bytes: window outside buffer") (fun () ->
      ignore (View.of_bytes ~off:4 ~len:4 b))

let view_u16_roundtrip =
  QCheck.Test.make ~name:"u16 roundtrips" (QCheck.int_bound 0xffff) (fun x ->
      let v = View.create 2 in
      View.set_u16 v 0 x;
      View.get_u16 v 0 = x)

let view_u32_roundtrip =
  QCheck.Test.make ~name:"u32 roundtrips" (QCheck.int_bound 0x3fffffff) (fun x ->
      let v = View.create 4 in
      View.set_u32 v 0 x;
      View.get_u32 v 0 = x)

(* ---- Cksum ---------------------------------------------------------- *)

(* The classic RFC 1071 worked example. *)
let cksum_rfc1071 () =
  let v = View.create 8 in
  List.iteri (fun i x -> View.set_u8 v i x)
    [ 0x00; 0x01; 0xf2; 0x03; 0xf4; 0xf5; 0xf6; 0xf7 ];
  Alcotest.(check int) "rfc1071 example" (lnot 0xddf2 land 0xffff)
    (Cksum.of_view (View.ro v))

let cksum_verifies () =
  let v = View.create 6 in
  View.set_u16 v 0 0x1234;
  View.set_u16 v 4 0xaaaa;
  let c = Cksum.of_view (View.ro v) in
  View.set_u16 v 2 c;
  Alcotest.(check bool) "sums to zero with checksum in place" true
    (Cksum.valid (View.ro v));
  View.set_u8 v 5 0x01;
  Alcotest.(check bool) "corruption detected" false (Cksum.valid (View.ro v))

let cksum_odd_length () =
  let v = View.of_string "abc" in
  (* manual: 0x6162 + 0x6300 *)
  Alcotest.(check int) "odd tail padded" (lnot (0x6162 + 0x6300) land 0xffff)
    (Cksum.of_view v)

let cksum_of_views_concat =
  QCheck.Test.make ~name:"of_views = of_view of concatenation (even splits)"
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (string_of_size Gen.(0 -- 40)))
    (fun (a, b) ->
      (* keep the first window even-length, as protocol uses do *)
      let a = if String.length a land 1 = 1 then a ^ "x" else a in
      Cksum.of_views [ View.of_string a; View.of_string b ]
      = Cksum.of_view (View.of_string (a ^ b)))

let cksum_incremental_update =
  QCheck.Test.make ~name:"RFC1624 incremental update = recompute"
    QCheck.(triple (string_of_size (Gen.return 20)) (int_bound 9) (int_bound 0xffff))
    (fun (s, word_idx, new_w) ->
      let v = View.of_bytes ~off:0 ~len:20 (Bytes.of_string s) in
      let before = Cksum.of_view (View.ro v) in
      let old_w = View.get_u16 v (word_idx * 2) in
      View.set_u16 v (word_idx * 2) new_w;
      let recomputed = Cksum.of_view (View.ro v) in
      let updated = Cksum.update ~cksum:before ~old_w ~new_w in
      (* one's-complement checksums have two representations of zero *)
      updated = recomputed
      || (updated land 0xffff) mod 0xffff = (recomputed land 0xffff) mod 0xffff)

(* ---- Mbuf ----------------------------------------------------------- *)

let mbuf_alloc () =
  let m = Mbuf.alloc 100 in
  Alcotest.(check int) "length" 100 (Mbuf.length m);
  Alcotest.(check int) "single segment" 1 (Mbuf.num_segs m);
  Alcotest.(check bool) "zero filled" true
    (String.for_all (fun c -> c = '\000') (Mbuf.to_string m))

let mbuf_of_string () =
  let m = Mbuf.of_string "payload" in
  Alcotest.(check string) "contents" "payload" (Mbuf.to_string m);
  Alcotest.(check int) "length" 7 (Mbuf.length m)

let mbuf_prepend_headroom () =
  let m = Mbuf.of_string "data" in
  let v = Mbuf.prepend m 4 in
  View.set_string v ~off:0 "HDR:";
  Alcotest.(check string) "header in front" "HDR:data" (Mbuf.to_string m);
  Alcotest.(check int) "still one segment (headroom used)" 1 (Mbuf.num_segs m)

let mbuf_prepend_overflow () =
  let m = Mbuf.alloc ~headroom:2 4 in
  let v = Mbuf.prepend m 8 in
  View.fill v 'h';
  Alcotest.(check int) "grew" 12 (Mbuf.length m);
  Alcotest.(check bool) "new segment added" true (Mbuf.num_segs m > 1);
  Alcotest.(check string) "content" "hhhhhhhh\000\000\000\000" (Mbuf.to_string m)

let mbuf_extend_back () =
  let m = Mbuf.of_string "abc" in
  let v = Mbuf.extend_back m 3 in
  View.set_string v ~off:0 "xyz";
  Alcotest.(check string) "appended" "abcxyz" (Mbuf.to_string m)

let mbuf_trim () =
  let m = Mbuf.of_string "0123456789" in
  Mbuf.trim_front m 3;
  Alcotest.(check string) "front trimmed" "3456789" (Mbuf.to_string m);
  Mbuf.trim_back m 2;
  Alcotest.(check string) "back trimmed" "34567" (Mbuf.to_string m);
  Alcotest.check_raises "overtrim rejected" (Invalid_argument "Mbuf.trim_front")
    (fun () -> Mbuf.trim_front m 99)

let mbuf_trim_across_segments () =
  let m = Mbuf.of_string "abc" in
  let m2 = Mbuf.of_string "defgh" in
  Mbuf.concat m m2;
  Alcotest.(check int) "two segments" 2 (Mbuf.num_segs m);
  Mbuf.trim_front m 4;
  Alcotest.(check string) "trim crosses boundary" "efgh" (Mbuf.to_string m);
  Alcotest.(check int) "emptied donor" 0 (Mbuf.length m2)

let mbuf_pullup () =
  let m = Mbuf.of_string "abc" in
  Mbuf.concat m (Mbuf.of_string "def");
  Mbuf.pullup m 5;
  Alcotest.(check int) "contiguous" 1 (Mbuf.num_segs m);
  Alcotest.(check string) "content preserved" "abcdef" (Mbuf.to_string m);
  Alcotest.check_raises "pullup beyond length"
    (Invalid_argument "Mbuf.pullup: chain too short") (fun () ->
      Mbuf.pullup m 100)

let mbuf_view_and_ro () =
  let m = Mbuf.of_string "abcd" in
  let v = Mbuf.view m in
  View.set_u8 v 0 (Char.code 'z');
  Alcotest.(check string) "view writes visible" "zbcd" (Mbuf.to_string m);
  let r = Mbuf.ro m in
  (* read-only views still read *)
  Alcotest.(check int) "ro view reads" (Char.code 'z')
    (View.get_u8 (Mbuf.view r) 0)

let mbuf_copy_rw_isolates () =
  let m = Mbuf.of_string "abcd" in
  let c = Mbuf.copy_rw (Mbuf.ro m) in
  View.set_u8 (Mbuf.view c) 0 (Char.code 'z');
  Alcotest.(check string) "original untouched" "abcd" (Mbuf.to_string m);
  Alcotest.(check string) "copy changed" "zbcd" (Mbuf.to_string c)

let mbuf_sub_copy () =
  let m = Mbuf.of_string "0123456789" in
  let s = Mbuf.sub_copy m ~off:2 ~len:5 in
  Alcotest.(check string) "range" "23456" (Mbuf.to_string s)

let mbuf_views_segments () =
  let m = Mbuf.of_string "abc" in
  Mbuf.concat m (Mbuf.of_string "def");
  let parts = List.map View.to_string (Mbuf.views m) in
  Alcotest.(check (list string)) "per-segment views" [ "abc"; "def" ] parts

let mbuf_stats () =
  Mbuf.reset_stats ();
  let m = Mbuf.alloc 10 in
  let _ = Mbuf.of_string "x" in
  Mbuf.free m;
  let allocated, live = Mbuf.stats () in
  Alcotest.(check int) "allocations" 2 allocated;
  Alcotest.(check int) "live" 1 live

let mbuf_equal () =
  let a = Mbuf.of_string "abc" in
  let b = Mbuf.of_string "ab" in
  Mbuf.concat b (Mbuf.of_string "c");
  Alcotest.(check bool) "content equality across segmentation" true
    (Mbuf.equal a b)

let mbuf_trim_concat_invariant =
  QCheck.Test.make ~name:"trim/concat preserve content"
    QCheck.(triple (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(0 -- 64)) (int_bound 63))
    (fun (a, b, n) ->
      let n = n mod (String.length a + String.length b + 1) in
      let m = Mbuf.of_string a in
      Mbuf.concat m (Mbuf.of_string b);
      Mbuf.trim_front m n;
      Mbuf.to_string m = String.sub (a ^ b) n (String.length a + String.length b - n))

let mbuf_prepend_invariant =
  QCheck.Test.make ~name:"prepend grows at the front"
    QCheck.(pair (string_of_size Gen.(0 -- 32)) (int_range 1 100))
    (fun (s, n) ->
      let m = Mbuf.of_string s in
      let v = Mbuf.prepend m n in
      View.fill v 'H';
      Mbuf.to_string m = String.make n 'H' ^ s)

(* Leases against a model.  Each frame is filled with its own byte and
   is freed (-1) or held some number of times (0 = not leased).  [hold]
   on a freed frame, [release] on a freed or unheld frame and [free] on
   a freed or held frame raise; the last release frees the frame, once,
   and a frame's buffer is never handed out again while the frame is
   not freed, so every live frame keeps its bytes. *)
let mbuf_lease_model =
  QCheck.Test.make ~name:"hold/release against a lease model" ~count:300
    QCheck.(small_list (pair (int_bound 3) (int_bound 15)))
    (fun ops ->
      let live () = snd (Mbuf.stats ()) in
      let live0 = live () in
      let frames = ref [||] in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      let step (op, i) =
        let n = Array.length !frames in
        if op = 0 || n = 0 then begin
          let c = Char.chr (65 + (n mod 26)) in
          let m = Mbuf.alloc (64 + (i * 16)) in
          View.fill (Mbuf.view m) c;
          frames := Array.append !frames [| (m, c, ref 0) |];
          true
        end
        else begin
          let m, _, st = !frames.(i mod n) in
          match op with
          | 1 ->
              if !st < 0 then raises (fun () -> Mbuf.hold m)
              else begin
                Mbuf.hold m;
                incr st;
                true
              end
          | 2 ->
              if !st <= 0 then raises (fun () -> Mbuf.release m)
              else begin
                let before = live () in
                Mbuf.release m;
                decr st;
                if !st = 0 then begin
                  st := -1;
                  live () = before - 1 && raises (fun () -> Mbuf.release m)
                end
                else live () = before
              end
          | _ ->
              if !st <> 0 then raises (fun () -> Mbuf.free m)
              else begin
                Mbuf.free m;
                st := -1;
                true
              end
        end
      in
      let intact () =
        Array.for_all
          (fun (m, c, st) ->
            !st < 0 || String.for_all (fun x -> x = c) (Mbuf.to_string m))
          !frames
      in
      let ok = List.for_all (fun op -> step op && intact ()) ops in
      let unfreed =
        Array.fold_left (fun k (_, _, st) -> if !st >= 0 then k + 1 else k) 0 !frames
      in
      ok && live () = live0 + unfreed)

let suite =
  [
    ( "packet.view",
      [
        tc "get/set roundtrip" view_roundtrip;
        tc "big-endian layout" view_big_endian;
        tc "bounds checking" view_bounds;
        tc "sub and shift" view_sub_shift;
        tc "sub shares bytes" view_sub_shares_bytes;
        tc "copy isolates" view_copy_isolates;
        tc "blit and fill" view_blit_fill;
        tc "fold" view_fold;
        tc "of_bytes windows" view_of_bytes_window;
        prop view_u16_roundtrip;
        prop view_u32_roundtrip;
      ] );
    ( "packet.cksum",
      [
        tc "RFC 1071 example" cksum_rfc1071;
        tc "verify and corrupt" cksum_verifies;
        tc "odd length" cksum_odd_length;
        prop cksum_of_views_concat;
        prop cksum_incremental_update;
      ] );
    ( "packet.mbuf",
      [
        tc "alloc" mbuf_alloc;
        tc "of_string" mbuf_of_string;
        tc "prepend uses headroom" mbuf_prepend_headroom;
        tc "prepend beyond headroom" mbuf_prepend_overflow;
        tc "extend_back" mbuf_extend_back;
        tc "trim front/back" mbuf_trim;
        tc "trim across segments" mbuf_trim_across_segments;
        tc "pullup" mbuf_pullup;
        tc "views write through" mbuf_view_and_ro;
        tc "copy_rw isolates" mbuf_copy_rw_isolates;
        tc "sub_copy" mbuf_sub_copy;
        tc "per-segment views" mbuf_views_segments;
        tc "pool stats" mbuf_stats;
        tc "structural equality" mbuf_equal;
        prop mbuf_trim_concat_invariant;
        prop mbuf_prepend_invariant;
        prop mbuf_lease_model;
      ] );
  ]
