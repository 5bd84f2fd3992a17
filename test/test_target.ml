(* The CLI's front door: every way a target string and its --sizes/--tiles
   bindings can be rejected comes back as an Error carrying the message
   the CLI prints (before exiting 2), and every accepted form resolves to
   the program and bindings the subcommands use. *)

let saxpy = "../corpus/saxpy.ppl"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects ~expect r =
  match r with
  | Ok _ -> Alcotest.failf "expected the rejection %S" expect
  | Error msg ->
      if not (contains msg expect) then
        Alcotest.failf "message %S lacks %S" msg expect

let accepts = function
  | Ok t -> t
  | Error msg -> Alcotest.failf "unexpected rejection: %s" msg

let sizes_by_base (t : Target.t) =
  List.map (fun (s, v) -> (Sym.base s, v)) t.Target.sizes

let suite_names () = List.map (fun b -> b.Suite.name) (Suite.extended ())

(* ------------------------------ rejections ------------------------------ *)

let test_unknown_bench () =
  let expect =
    Printf.sprintf "unknown benchmark \"nosuch\" (try: %s)"
      (String.concat ", " (suite_names ()))
  in
  (match Target.bench "nosuch" with
  | Ok _ -> Alcotest.fail "nosuch resolved"
  | Error msg -> Alcotest.(check string) "message" expect msg);
  rejects ~expect:"unknown benchmark or file \"nosuch\" (try: outerprod, "
    (Target.resolve ~cmd:"lint-ir" "nosuch")

let test_unknown_binding () =
  rejects ~expect:"compile: --sizes q=3: no size parameter q (have: n)"
    (Target.resolve ~cmd:"compile" ~files_only:true ~sizes:[ ("q", 3) ] saxpy);
  rejects ~expect:"profile: --sizes zz=3: no size parameter zz (have: m, n, p)"
    (Target.resolve ~cmd:"profile" ~sizes:[ ("zz", 3) ] "gemm")

let test_nonpositive () =
  rejects ~expect:"compile: --sizes n=0: values must be positive"
    (Target.resolve ~cmd:"compile" ~files_only:true ~sizes:[ ("n", 0) ] saxpy);
  rejects ~expect:"compile: --tiles n=-1: values must be positive"
    (Target.resolve ~cmd:"compile" ~files_only:true ~tiles:[ ("n", -1) ] saxpy);
  rejects ~expect:"profile: --sizes m=0: values must be positive"
    (Target.resolve ~cmd:"profile" ~sizes:[ ("m", 0) ] "gemm")

let test_above_maxsize () =
  let expect flag v =
    Printf.sprintf "compile: %s n=%d: above the declared maxsize n 1048576" flag v
  in
  rejects ~expect:(expect "--sizes" 2000000)
    (Target.resolve ~cmd:"compile" ~files_only:true ~sizes:[ ("n", 2000000) ]
       saxpy);
  rejects ~expect:(expect "--tiles" 100000000)
    (Target.resolve ~cmd:"compile" ~files_only:true
       ~tiles:[ ("n", 100000000) ] ~sizes:[ ("n", 4096) ] saxpy);
  (* the bound is inclusive *)
  ignore
    (accepts
       (Target.resolve ~cmd:"compile" ~files_only:true
          ~tiles:[ ("n", 1048576) ] saxpy))

let test_profile_needs_sizes () =
  rejects
    ~expect:"profile: ../corpus/saxpy.ppl: --sizes NAME=N,... is required"
    (Target.resolve ~cmd:"profile" ~need_sizes:true saxpy)

let test_tiles_on_bench () =
  rejects ~expect:"profile: gemm: --tiles applies to .ppl targets only"
    (Target.resolve ~cmd:"profile" ~tiles:[ ("m", 4) ] "gemm")

let test_bad_files () =
  (* the path is named once, not again by the failed open's message *)
  (match Target.resolve ~cmd:"compile" ~files_only:true "no/such.ppl" with
  | Error msg ->
      Alcotest.(check string) "missing file"
        "no/such.ppl: No such file or directory" msg
  | Ok _ -> Alcotest.fail "no/such.ppl resolved");
  rejects ~expect:".: Is a directory" (Target.resolve ~cmd:"lint-ir" ".");
  rejects ~expect:"malformed.ppl: line "
    (Target.resolve ~cmd:"lint-ir" "malformed.ppl");
  let ill = Filename.temp_file "ill_typed" ".ppl" in
  Out_channel.with_open_text ill (fun oc ->
      output_string oc
        "program ill\nsize n\ninput x : Float(n)\nmap(n){ i => x(i) + 1 }\n");
  let r = Target.resolve ~cmd:"compile" ~files_only:true ill in
  Sys.remove ill;
  rejects ~expect:(ill ^ ": numeric primitive on Float and Int") r

(* ---------------------------- accepted forms ---------------------------- *)

let test_bench () =
  let t = accepts (Target.resolve ~cmd:"lint-ir" "gemm") in
  Alcotest.(check string) "name" "gemm" t.Target.name;
  let b = Option.get t.Target.bench in
  Alcotest.(check bool) "program is the bench's" true (t.Target.prog == b.Suite.prog);
  Alcotest.(check bool) "sim sizes" true (t.Target.sizes = b.Suite.sim_sizes);
  Alcotest.(check bool) "own tiles" true (t.Target.tiles = b.Suite.tiles);
  let b' = accepts (Target.bench "kmeans") in
  Alcotest.(check string) "bench" "kmeans" b'.Suite.name

let test_file () =
  let t =
    accepts
      (Target.resolve ~cmd:"compile" ~files_only:true ~tiles:[ ("n", 64) ]
         ~sizes:[ ("n", 4096) ] saxpy)
  in
  Alcotest.(check string) "name" "saxpy.ppl" t.Target.name;
  Alcotest.(check bool) "no bench" true (t.Target.bench = None);
  Alcotest.(check string) "program" "saxpy" t.Target.prog.Ir.pname;
  Alcotest.(check (list (pair string int))) "sizes" [ ("n", 4096) ]
    (sizes_by_base t);
  (* the bindings are the program's own size parameters *)
  Alcotest.(check bool) "tile symbol" true
    (List.map fst t.Target.tiles = t.Target.prog.Ir.size_params)

let test_path_wins () =
  let dir = Filename.temp_dir "target" "" in
  let cwd = Sys.getcwd () in
  Out_channel.with_open_text (Filename.concat dir "gemm") (fun oc ->
      output_string oc (In_channel.with_open_bin saxpy In_channel.input_all));
  Sys.chdir dir;
  let r = Target.resolve ~cmd:"lint-ir" "gemm" in
  Sys.chdir cwd;
  Sys.remove (Filename.concat dir "gemm");
  Sys.rmdir dir;
  let t = accepts r in
  Alcotest.(check bool) "read as a file" true (t.Target.bench = None);
  Alcotest.(check string) "program" "saxpy" t.Target.prog.Ir.pname

let test_profile_override () =
  let t =
    accepts
      (Target.resolve ~cmd:"profile" ~need_sizes:true ~sizes:[ ("m", 256) ]
         "gemm")
  in
  let b = Option.get t.Target.bench in
  let expected =
    List.map
      (fun (s, v) -> (Sym.base s, if Sym.base s = "m" then 256 else v))
      b.Suite.sim_sizes
  in
  Alcotest.(check (list (pair string int))) "m overridden" expected
    (sizes_by_base t)

let () =
  Alcotest.run "target"
    [ ( "rejects",
        [ Alcotest.test_case "unknown target" `Quick test_unknown_bench;
          Alcotest.test_case "unknown binding" `Quick test_unknown_binding;
          Alcotest.test_case "value <= 0" `Quick test_nonpositive;
          Alcotest.test_case "above maxsize" `Quick test_above_maxsize;
          Alcotest.test_case "profile .ppl without --sizes" `Quick
            test_profile_needs_sizes;
          Alcotest.test_case "--tiles on a benchmark" `Quick test_tiles_on_bench;
          Alcotest.test_case "unreadable, malformed, ill-typed" `Quick
            test_bad_files ] );
      ( "accepts",
        [ Alcotest.test_case "benchmark" `Quick test_bench;
          Alcotest.test_case ".ppl path" `Quick test_file;
          Alcotest.test_case "existing path wins" `Quick test_path_wins;
          Alcotest.test_case "profile --sizes override" `Quick
            test_profile_override ] ) ]
