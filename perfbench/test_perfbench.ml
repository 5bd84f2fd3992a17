(* Tests for the benchmark's own code: statistics, span accounting, the
   host-speed calibration, the seeded op order and the size of each
   workload's op list. *)

let floats = Array.init 100 (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Stats.percentile ~p:50.0 floats);
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Stats.percentile ~p:90.0 floats);
  Alcotest.(check (float 0.0)) "p50 of one sample" 7.0 (Stats.percentile ~p:50.0 [| 7.0 |]);
  Alcotest.(check (float 0.0))
    "order does not matter" 90.0
    (Stats.percentile ~p:90.0 (Array.of_list (List.rev (Array.to_list floats))));
  Alcotest.(check int) "100 samples leave 10 beyond p90" 10 (Stats.beyond ~p:90.0 100);
  Alcotest.(check int) "99 samples leave 9 beyond p90" 9 (Stats.beyond ~p:90.0 99);
  Alcotest.check_raises "p90 needs 10 samples beyond it"
    (Invalid_argument "Stats.percentile: p90 of 99 samples has 9 beyond it (< 10)")
    (fun () -> ignore (Stats.percentile ~p:90.0 (Array.sub floats 1 99)))

let test_per_item () =
  (* three rounds of two items, round after round *)
  let rounds = [| 3.0; 2.0; 1.0; 5.0; 4.0; 4.5 |] in
  Alcotest.(check (array (float 0.0)))
    "each item's median round" [| 3.0; 4.5 |]
    (Stats.per_item Stats.median ~items:2 rounds);
  Alcotest.(check (array (float 0.0)))
    "any statistic" [| 1.0; 2.0 |]
    (Stats.per_item (Array.fold_left Float.min infinity) ~items:2 rounds);
  Alcotest.check_raises "partial round"
    (Invalid_argument "Stats.per_item: samples are not whole rounds")
    (fun () -> ignore (Stats.per_item Stats.median ~items:2 [| 1.0; 2.0; 3.0 |]))

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_geomean () =
  Alcotest.(check (float 1e-12)) "2 and 8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-12)) "one value" 3.5 (Stats.geomean [ 3.5 ]);
  Alcotest.(check (float 1e-9)) "1, 10, 100" 10.0 (Stats.geomean [ 1.0; 10.0; 100.0 ]);
  List.iter
    (fun xs ->
      match Stats.geomean xs with
      | _ -> Alcotest.fail "geomean accepted a non-positive input"
      | exception Invalid_argument _ -> ())
    [ []; [ 0.0; 1.0 ]; [ -1.0 ]; [ Float.nan ]; [ Float.infinity ] ]

let test_shuffle () =
  let xs = List.init 200 Fun.id in
  let a = Stats.shuffle ~seed:1 xs and b = Stats.shuffle ~seed:1 xs in
  let c = Stats.shuffle ~seed:2 xs in
  Alcotest.(check (list int)) "same seed, same order" a b;
  Alcotest.(check bool) "another seed, another order" false (a = c);
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare c);
  Alcotest.(check bool) "actually shuffled" false (a = xs)

(* a root op span of 10 s with children 0-3 s (which has a child of its
   own, 1-2 s) and 5-9 s: self times telescope back to the op's duration *)
let test_self_times () =
  let span id parent name t0 t1 =
    { Span.id; parent; op = 0; name; t0; t1; minor_words = 0.0 }
  in
  let spans =
    [ span 0 (-1) "op" 0.0 10.0; span 1 0 "tiling" 0.0 3.0; span 2 1 "lower" 1.0 2.0;
      span 3 0 "simulate" 5.0 9.0 ]
  in
  let selfs = Span.self_times spans in
  let self id = snd (List.find (fun ((s : Span.t), _) -> s.Span.id = id) selfs) in
  Alcotest.(check (float 1e-12)) "op self" 3.0 (self 0);
  Alcotest.(check (float 1e-12)) "tiling self" 2.0 (self 1);
  Alcotest.(check (float 1e-12)) "lower self" 1.0 (self 2);
  Alcotest.(check (float 1e-12)) "selfs sum to the op" 10.0
    (List.fold_left (fun acc (_, t) -> acc +. t) 0.0 selfs)

let test_calib () =
  let f = Calib.factor ~fresh:true () in
  Alcotest.(check bool) "factor is positive and finite" true (Float.is_finite f && f > 0.0);
  Alcotest.(check (float 0.0)) "a calibration is reused" f (Calib.factor ());
  Alcotest.(check bool) "the kernel sorts" true
    (Array.to_list Calib.work = List.sort Int.compare (Array.to_list Calib.src))

let op_count name = List.length (Workload.setup name ~seed:0).Workload.ops

let test_op_lists () =
  Alcotest.(check int) "dse: tile assignments of the six paper benchmarks" 200
    (op_count "dse");
  Alcotest.(check int) "verify: 90 designs minus 5 excluded gemm points" 85
    (op_count "verify");
  Alcotest.(check int) "explain: 12 benchmarks x 3 configurations" 36 (op_count "explain")

let test_verify_exclusions () =
  let gemm = Suite.find (Suite.extended ()) "gemm" in
  let all = Workload.cartesian (List.map (fun (s, d) -> (s, [ d; d / 2; d / 4 ])) gemm.Suite.tiles) in
  let kept = List.map (List.map snd) (Workload.verify_tiles gemm) in
  List.iter
    (fun (_, tiles) ->
      Alcotest.(check bool) "excluded point is on the grid" true
        (List.mem tiles (List.map (List.map snd) all));
      Alcotest.(check bool) "excluded point is not run" false (List.mem tiles kept))
    Workload.verify_excluded

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "per item" `Quick test_per_item;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "seeded shuffle" `Quick test_shuffle;
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "host-speed calibration" `Quick test_calib ] );
      ( "workloads",
        [ Alcotest.test_case "op-list sizes" `Quick test_op_lists;
          Alcotest.test_case "verify exclusions" `Quick test_verify_exclusions ] ) ]
