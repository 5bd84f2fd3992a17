(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printed first, in paper-shaped rows), then times each
   compiler/simulator stage with Bechamel — one Test.make per artifact.

   Run: dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Paper artifacts: print the regenerated numbers                      *)
(* ------------------------------------------------------------------ *)

let rule () = print_endline (String.make 72 '=')

let print_artifacts () =
  let benches = Suite.all () in
  rule ();
  Experiments.print_table5 benches;
  print_newline ();
  rule ();
  Experiments.print_fig5c
    (Experiments.fig5c ~n:1024 ~k:256 ~d:32 ~b0:64 ~b1:16 ());
  print_newline ();
  rule ();
  Experiments.print_fig7 (Experiments.fig7 benches);
  print_newline ();
  rule ();
  print_endline
    "Extension applications — same three configurations (no paper reference)";
  Printf.printf "%-12s %12s %12s %12s | %8s %8s\n" "benchmark" "baseline"
    "+tiling" "+meta" "tiling" "meta";
  let paper_names = List.map (fun b -> b.Suite.name) benches in
  let extras =
    List.filter
      (fun (b : Suite.bench) -> not (List.mem b.Suite.name paper_names))
      (Suite.extended ())
  in
  List.iter
    (fun (r : Experiments.fig7_row) ->
      Printf.printf "%-12s %12.0f %12.0f %12.0f | %7.2fx %7.2fx\n" r.bench
        (r.cycles Experiments.Baseline)
        (r.cycles Experiments.Tiled)
        (r.cycles Experiments.Tiled_meta)
        (r.speedup Experiments.Tiled)
        (r.speedup Experiments.Tiled_meta))
    (Experiments.fig7 extras);
  print_newline ();
  rule ();
  print_endline
    "Table 4 — template vocabulary and the benchmarks instantiating it";
  let designs =
    List.map
      (fun (b : Suite.bench) ->
        (b.Suite.name, Experiments.design_of Experiments.Tiled_meta b))
      (Suite.extended ())
  in
  let mem_users kind =
    List.filter_map
      (fun (n, d) ->
        if List.exists (fun m -> m.Hw.kind = kind) d.Hw.mems then Some n
        else None)
      designs
  in
  let ctrl_users pred =
    List.filter_map
      (fun (n, d) ->
        if Hw.fold_ctrls (fun acc c -> acc || pred c) false d.Hw.top then
          Some n
        else None)
      designs
  in
  let pipe_users t =
    ctrl_users (function Hw.Pipe { template; _ } -> template = t | _ -> false)
  in
  let show label users =
    Printf.printf "  %-22s %s\n" label
      (if users = [] then "-" else String.concat ", " users)
  in
  show "buffer" (mem_users Hw.Buffer);
  show "double buffer" (mem_users Hw.Double_buffer);
  show "cache" (mem_users Hw.Cache);
  show "FIFO" (mem_users Hw.Fifo);
  show "CAM" (mem_users Hw.Cam);
  show "vector unit" (pipe_users Hw.Vector);
  show "reduction tree" (pipe_users Hw.Tree);
  show "parallel FIFO write" (pipe_users Hw.Fifo_write);
  show "CAM update" (pipe_users Hw.Cam_update);
  show "tile load/store"
    (ctrl_users (function Hw.Tile_load _ | Hw.Tile_store _ -> true | _ -> false));
  show "metapipeline"
    (ctrl_users (function Hw.Loop { meta = true; _ } -> true | _ -> false));
  show "parallel controller"
    (ctrl_users (function Hw.Par _ -> true | _ -> false));
  print_newline ();
  rule ();
  print_endline "Tables 1-3 — transformation exemplars (gemm IR sizes)";
  let t = Gemm.make () in
  let r =
    Tiling.run
      ~tiles:[ (t.Gemm.m, 64); (t.Gemm.n, 64); (t.Gemm.p, 64) ]
      t.Gemm.prog
  in
  List.iter
    (fun (name, (p : Ir.program)) ->
      Printf.printf "  gemm %-24s %4d IR nodes\n" name
        (Rewrite.node_count p.Ir.body))
    [ ("fused", r.Tiling.fused);
      ("strip-mined (Table 3)", r.Tiling.stripped);
      ("with tile copies", r.Tiling.stripped_with_copies);
      ("interchanged (Table 3)", r.Tiling.tiled) ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations (design choices DESIGN.md calls out)                      *)
(* ------------------------------------------------------------------ *)

let print_ablations () =
  rule ();
  print_endline "Ablation: gemm tile-size sweep (cycles and BRAM at 1024^3)";
  let t = Gemm.make () in
  let sizes = [ (t.Gemm.m, 1024); (t.Gemm.n, 1024); (t.Gemm.p, 1024) ] in
  (* each point is an independent compile+simulate chain: fan out across
     the pool, print in order *)
  List.iter print_string
    (Pool.map
       (fun b ->
         let r =
           Tiling.run
             ~tiles:[ (t.Gemm.m, b); (t.Gemm.n, b); (t.Gemm.p, b) ]
             t.Gemm.prog
         in
         let d = Lower.program Lower.default_opts r.Tiling.tiled in
         let rep = Simulate.run d ~sizes in
         let area = Area_model.of_design d in
         Printf.sprintf "  b=%-4d %14.0f cycles %8.0f M20K %14.0f words read\n"
           b rep.Simulate.cycles area.Area_model.bram (Simulate.total_read rep))
       [ 16; 32; 64; 128; 256 ]);
  print_newline ();
  print_endline "Ablation: kmeans parallelism-factor sweep (+tiling+meta)";
  let bench = Suite.find (Suite.all ()) "kmeans" in
  let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
  List.iter print_string
    (Pool.map
       (fun par ->
         let d =
           Lower.program { Lower.default_opts with Lower.par } r.Tiling.tiled
         in
         let rep = Simulate.run d ~sizes:bench.Suite.sim_sizes in
         let area = Area_model.of_design d in
         Printf.sprintf "  par=%-3d %14.0f cycles %10.0f logic\n" par
           rep.Simulate.cycles area.Area_model.logic)
       [ 4; 8; 16; 32; 64 ]);
  print_newline ();
  print_endline "Ablation: tpchq6 filter-reduce fusion (FIFO removed)";
  let q6 = Suite.find (Suite.all ()) "tpchq6" in
  List.iter
    (fun (name, fuse) ->
      let r = Tiling.run ~fuse_filters:fuse ~tiles:q6.Suite.tiles q6.Suite.prog in
      let d = Lower.program Lower.default_opts r.Tiling.tiled in
      let rep = Simulate.run d ~sizes:q6.Suite.sim_sizes in
      let fifos =
        List.length (List.filter (fun m -> m.Hw.kind = Hw.Fifo) d.Hw.mems)
      in
      Printf.printf "  %-18s %12.0f cycles, %d FIFOs\n" name rep.Simulate.cycles
        fifos)
    [ ("separate filter", false); ("fused filter", true) ];
  print_newline ();
  print_endline
    "Ablation: metapipeline stage rebalancing (the paper's gda optimization)";
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let base = Experiments.design_of Experiments.Baseline bench in
      let meta = Experiments.design_of Experiments.Tiled_meta bench in
      let sizes = bench.Suite.sim_sizes in
      let reb = Rebalance.apply ~factor:4 meta ~sizes in
      let c d = (Simulate.run d ~sizes).Simulate.cycles in
      let a_meta = Area_model.of_design meta in
      let a_reb = Area_model.of_design reb in
      Printf.printf
        "  %-8s meta %6.1fx -> rebalanced %6.1fx (logic %.0f -> %.0f)\n" name
        (c base /. c meta) (c base /. c reb) a_meta.Area_model.logic
        a_reb.Area_model.logic)
    [ "gda"; "gemm"; "kmeans" ];
  print_newline ();
  print_endline
    "Ablation: caches for non-affine leftover accesses (the paper's \
     generality claim over polyhedral tooling)";
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      List.iter
        (fun (label, cache) ->
          let d =
            Lower.program
              { Lower.default_opts with Lower.cache_leftover = cache }
              r.Tiling.tiled
          in
          let rep = Simulate.run d ~sizes:bench.Suite.sim_sizes in
          Printf.printf "  %-8s %-10s %14.0f cycles %14.0f words read\n" name
            label rep.Simulate.cycles (Simulate.total_read rep))
        [ ("cached", true); ("uncached", false) ])
    [ "gda"; "kmeans" ];
  print_newline ();
  print_endline "Sensitivity: Fig. 7 shape under perturbed machine models";
  Experiments.print_sensitivity (Experiments.sensitivity (Suite.all ()));
  print_newline ();
  print_endline
    "Scaling: Fig. 7 shape across problem sizes (note the kmeans crossover \
     at half scale, where the centroids fit the baseline's burst window)";
  Experiments.print_sensitivity (Experiments.scaling (Suite.all ()));
  print_newline ();
  print_endline
    "Ablation: tpchq6 modeled selectivity (FIFO consumer rate) — the FIFO \
     decouples the data-dependent output rate from the streaming stage, so \
     cycles stay flat across selectivities";
  let q6r = Tiling.run ~tiles:q6.Suite.tiles q6.Suite.prog in
  List.iter
    (fun rate ->
      let d =
        Lower.program { Lower.default_opts with Lower.fifo_rate = rate }
          q6r.Tiling.tiled
      in
      let rep = Simulate.run d ~sizes:q6.Suite.sim_sizes in
      Printf.printf "  selectivity=%-5.2f %12.0f cycles\n" rate
        rep.Simulate.cycles)
    [ 0.01; 0.02; 0.05; 0.1; 0.25; 0.5; 1.0 ];
  print_newline ();
  print_endline "Ablation: automated tile-size selection (DSE, gemm)";
  (match (Dse.explore_bench (Suite.find (Suite.all ()) "gemm")).Dse.best with
  | Some best ->
      Printf.printf "  selected %s: %.0f cycles, %.0f M20K\n"
        (String.concat ", "
           (List.map
              (fun (s, b) -> Printf.sprintf "%s=%d" (Sym.base s) b)
              best.Dse.tiles))
        best.Dse.cycles best.Dse.area.Area_model.bram
  | None -> print_endline "  no feasible point");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel DSE wall-clock banner                                      *)
(* ------------------------------------------------------------------ *)

let print_parallel_dse () =
  rule ();
  let par_domains = Int.max 2 (Pool.default_domains ()) in
  Printf.printf
    "Parallel DSE — joint tile/par sweeps, wall-clock (recommended domain \
     count %d; parallel leg uses %d)\n"
    (Pool.default_domains ()) par_domains;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let sweep domains () =
        Dse.explore_bench ~domains ~pars:[ 4; 16; 64 ] bench
      in
      let seq, t_seq = time (sweep 1) in
      let par, t_par = time (sweep par_domains) in
      let identical =
        seq.Dse.points = par.Dse.points && seq.Dse.best = par.Dse.best
      in
      Printf.printf
        "  %-8s %3d points  1 domain %6.3fs  %d domains %6.3fs  speedup \
         %.2fx  %s\n"
        name
        (List.length seq.Dse.points)
        t_seq par_domains t_par
        (t_seq /. Float.max 1e-9 t_par)
        (if identical then "(results identical)" else "** RESULTS DIFFER **"))
    [ "gemm"; "kmeans" ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Timed benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let staged = Staged.stage

(* Table 1: one strip-mining rule application per pattern *)
let table1_tests =
  let mk_map () =
    let d = Dsl.size "d" in
    let x = Dsl.input "x" Ty.float_ [ Ir.Var d ] in
    Dsl.program ~name:"map" ~sizes:[ d ] ~inputs:[ x ]
      (Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun i ->
           Dsl.( *! ) (Dsl.f 2.0) (Dsl.read (Dsl.in_var x) [ i ])))
  in
  let mk_fold () =
    let d = Dsl.size "d" in
    let x = Dsl.input "x" Ty.float_ [ Ir.Var d ] in
    Dsl.program ~name:"fold" ~sizes:[ d ] ~inputs:[ x ]
      (Dsl.fold1 (Dsl.dfull (Ir.Var d)) ~init:(Dsl.f 0.0)
         ~comb:(fun a b -> Dsl.( +! ) a b)
         (fun i acc -> Dsl.( +! ) acc (Dsl.read (Dsl.in_var x) [ i ])))
  in
  let mk_flatmap () = (Tpchq6.make ()).Tpchq6.prog in
  let mk_gbf () = (Histogram.make ()).Histogram.prog in
  List.map
    (fun (name, mk) ->
      let p = mk () in
      let tiles = List.map (fun s -> (s, 64)) p.Ir.size_params in
      Test.make ~name:(Printf.sprintf "table1/strip-mine-%s" name)
        (staged (fun () -> ignore (Strip_mine.program ~tiles p))))
    [ ("map", mk_map); ("multifold", mk_fold); ("flatmap", mk_flatmap);
      ("groupbyfold", mk_gbf) ]

(* Table 2: strip mining the worked examples *)
let table2_tests =
  List.map
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      Test.make ~name:(Printf.sprintf "table2/%s" name)
        (staged (fun () ->
             ignore
               (Strip_mine.program ~tiles:bench.Suite.tiles bench.Suite.prog))))
    [ "sumrows"; "outerprod" ]

(* Table 3: gemm interchange *)
let table3_tests =
  let t = Gemm.make () in
  let stripped =
    Strip_mine.program
      ~tiles:[ (t.Gemm.m, 64); (t.Gemm.n, 64); (t.Gemm.p, 64) ]
      t.Gemm.prog
  in
  [ Test.make ~name:"table3/gemm-interchange"
      (staged (fun () -> ignore (Interchange.program stripped))) ]

(* Fig. 5a/5b: the full k-means tiling pipeline *)
let fig5_tests =
  let t = Kmeans.make () in
  [ Test.make ~name:"fig5/kmeans-tiling-pipeline"
      (staged (fun () ->
           ignore
             (Tiling.run
                ~tiles:[ (t.Kmeans.n, 64); (t.Kmeans.k, 16) ]
                t.Kmeans.prog))) ]

(* Fig. 5c: traffic counters *)
let fig5c_tests =
  [ Test.make ~name:"fig5c/kmeans-traffic"
      (staged (fun () ->
           ignore (Experiments.fig5c ~n:1024 ~k:256 ~d:32 ~b0:64 ~b1:16 ()))) ]

(* Table 4 / Fig. 6: hardware generation per benchmark *)
let table4_tests =
  List.map
    (fun (bench : Suite.bench) ->
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      Test.make ~name:(Printf.sprintf "table4/lower-%s" bench.Suite.name)
        (staged (fun () ->
             ignore (Lower.program Lower.default_opts r.Tiling.tiled))))
    (Suite.all ())

(* Fig. 7: simulation of each benchmark in each configuration *)
let fig7_tests =
  List.concat_map
    (fun (bench : Suite.bench) ->
      List.map
        (fun (cname, cfg) ->
          let d = Experiments.design_of cfg bench in
          Test.make
            ~name:(Printf.sprintf "fig7/sim-%s-%s" bench.Suite.name cname)
            (staged (fun () ->
                 ignore (Simulate.run d ~sizes:bench.Suite.sim_sizes))))
        [ ("baseline", Experiments.Baseline);
          ("tiled", Experiments.Tiled);
          ("meta", Experiments.Tiled_meta) ])
    (Suite.all ())

(* ablation timing: DSE sweep *)
let dse_tests =
  [ Test.make ~name:"ablation/dse-gemm"
      (staged (fun () ->
           ignore (Dse.explore_bench (Suite.find (Suite.all ()) "gemm")))) ]

(* event-engine validation of the Fig. 7 designs, plus the scaling line:
   designs whose DRAM calendar grows long (tiled outerprod coalesces past
   2048 spans; gemm at small tiles schedules 25k and 99k events), where
   the time per event should stay flat *)
let event_tests =
  let event name d (bench : Suite.bench) =
    Test.make ~name
      (staged (fun () -> ignore (Event_sim.run d ~sizes:bench.Suite.sim_sizes)))
  in
  let gemm = Suite.find (Suite.all ()) "gemm" in
  let gemm_at m n p =
    let tiles =
      List.map
        (fun (s, _) -> (s, List.assoc (Sym.base s) [ ("m", m); ("n", n); ("p", p) ]))
        gemm.Suite.tiles
    in
    event
      (Printf.sprintf "event-scaling/gemm-m%d-n%d-p%d" m n p)
      (Lower.program Lower.default_opts (Tiling.run ~tiles gemm.Suite.prog).Tiling.tiled)
      gemm
  in
  let outerprod = Suite.find (Suite.all ()) "outerprod" in
  List.map
    (fun (bench : Suite.bench) ->
      event
        (Printf.sprintf "fig7/event-%s" bench.Suite.name)
        (Experiments.design_of Experiments.Tiled_meta bench)
        bench)
    (Suite.all ())
  @ [ event "event-scaling/outerprod-tiled"
        (Experiments.design_of Experiments.Tiled outerprod)
        outerprod;
      gemm_at 64 32 64;
      gemm_at 32 32 32 ]

(* Fig. 7 area bars *)
let area_tests =
  List.map
    (fun (bench : Suite.bench) ->
      let d = Experiments.design_of Experiments.Tiled_meta bench in
      Test.make ~name:(Printf.sprintf "fig7/area-%s" bench.Suite.name)
        (staged (fun () -> ignore (Area_model.of_design d))))
    (Suite.all ())

(* reference interpreter on the validation workloads *)
let interp_tests =
  List.map
    (fun (bench : Suite.bench) ->
      let sizes = bench.Suite.test_sizes in
      let inputs = bench.Suite.gen ~sizes ~seed:7 in
      Test.make ~name:(Printf.sprintf "interp/%s" bench.Suite.name)
        (staged (fun () ->
             ignore (Eval.eval_program bench.Suite.prog ~sizes ~inputs))))
    (Suite.all ())

(* toolchain stages beyond the paper's artifacts: concrete-syntax parse,
   static bounds verification, design validation *)
let tooling_tests =
  let kb = Suite.find (Suite.all ()) "kmeans" in
  let r = Tiling.run ~tiles:kb.Suite.tiles kb.Suite.prog in
  let text = Pp.program_to_string r.Tiling.tiled in
  let d = Experiments.design_of Experiments.Tiled_meta kb in
  [ Test.make ~name:"tooling/parse-tiled-kmeans"
      (staged (fun () -> ignore (Parser.program_of_string text)));
    Test.make ~name:"tooling/bounds-tiled-kmeans"
      (staged (fun () -> ignore (Bounds.check_program r.Tiling.tiled)));
    Test.make ~name:"tooling/hw-check-kmeans"
      (staged (fun () -> ignore (Hw_check.check d)));
    Test.make ~name:"tooling/bottlenecks-kmeans"
      (staged (fun () ->
           ignore (Simulate.bottlenecks d ~sizes:kb.Suite.sim_sizes))) ]

let all_tests =
  table1_tests @ table2_tests @ table3_tests @ fig5_tests @ fig5c_tests
  @ table4_tests @ fig7_tests @ event_tests @ area_tests @ dse_tests
  @ interp_tests @ tooling_tests

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)
(* ------------------------------------------------------------------ *)

let run_timings () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-40s %14s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some (t :: _) ->
              let unit, v =
                if t > 1e9 then ("s ", t /. 1e9)
                else if t > 1e6 then ("ms", t /. 1e6)
                else if t > 1e3 then ("us", t /. 1e3)
                else ("ns", t)
              in
              Printf.printf "%-40s %11.2f %s\n" name v unit
          | _ -> Printf.printf "%-40s %14s\n" name "n/a")
        analyzed)
    all_tests

let () =
  print_artifacts ();
  print_ablations ();
  print_parallel_dse ();
  rule ();
  print_endline "Timing (Bechamel, monotonic clock, OLS estimate per run)";
  run_timings ()
