(* An independent correctness oracle for the whole engine.

   [Reference.eval] evaluates a query naively — cross products, row-by-row
   3VL filtering through Expr.satisfies, hash grouping and aggregate
   folding written directly — sharing no code with the planner or the
   physical operators.  Random queries over random data must produce the
   same multiset of rows through the full parse → rewrite → plan → execute
   pipeline, with the soft-constraint machinery both off and on. *)

open Rel

module Reference = struct
  (* evaluate one SELECT block against base tables *)
  let eval_select db (s : Sqlfe.Ast.select) : Tuple.t list =
    (* cross product of the FROM list, with the combined binding *)
    let sources =
      List.map
        (fun (r : Sqlfe.Ast.table_ref) ->
          let tbl = Database.table_exn db r.Sqlfe.Ast.table in
          let alias = Option.value r.Sqlfe.Ast.alias ~default:r.Sqlfe.Ast.table in
          (Expr.Binding.of_schema ~alias (Table.schema tbl), Table.to_list tbl))
        s.Sqlfe.Ast.from
    in
    let binding =
      List.fold_left
        (fun acc (b, _) -> Expr.Binding.concat acc b)
        [||] (List.map Fun.id sources)
    in
    let rec cross = function
      | [] -> [ [||] ]
      | (_, rows) :: rest ->
          let tails = cross rest in
          List.concat_map
            (fun row -> List.map (fun tl -> Tuple.concat row tl) tails)
            rows
    in
    let rows = cross sources in
    let rows =
      List.filter (fun row -> Expr.satisfies binding s.Sqlfe.Ast.where row) rows
    in
    (* grouping *)
    let has_agg =
      List.exists
        (function Sqlfe.Ast.Aggregate _ -> true | _ -> false)
        s.Sqlfe.Ast.items
    in
    let out_rows =
      if s.Sqlfe.Ast.group_by <> [] || has_agg then begin
        let key_of row =
          List.map (fun e -> Expr.eval binding e row) s.Sqlfe.Ast.group_by
        in
        let groups : (Value.t list, Tuple.t list ref) Hashtbl.t =
          Hashtbl.create 16
        in
        let order = ref [] in
        List.iter
          (fun row ->
            let k = key_of row in
            match Hashtbl.find_opt groups k with
            | Some l -> l := row :: !l
            | None ->
                Hashtbl.add groups k (ref [ row ]);
                order := k :: !order)
          rows;
        let groups_list =
          if s.Sqlfe.Ast.group_by = [] && Hashtbl.length groups = 0 then
            [ ([], []) ] (* global aggregate over empty input *)
          else
            List.rev_map (fun k -> (k, List.rev !(Hashtbl.find groups k))) !order
        in
        let agg fn arg members =
          match fn with
          | Sqlfe.Ast.Count -> (
              match arg with
              | None -> Value.Int (List.length members)
              | Some e ->
                  Value.Int
                    (List.length
                       (List.filter
                          (fun r ->
                            not (Value.is_null (Expr.eval binding e r)))
                          members)))
          | Sqlfe.Ast.Sum | Sqlfe.Ast.Avg | Sqlfe.Ast.Min | Sqlfe.Ast.Max -> (
              let e = Option.get arg in
              let vals =
                List.filter_map
                  (fun r ->
                    let v = Expr.eval binding e r in
                    if Value.is_null v then None else Some v)
                  members
              in
              match (vals, fn) with
              | [], _ -> Value.Null
              | vs, Sqlfe.Ast.Min ->
                  List.fold_left
                    (fun a v -> if Value.compare_total v a < 0 then v else a)
                    (List.hd vs) vs
              | vs, Sqlfe.Ast.Max ->
                  List.fold_left
                    (fun a v -> if Value.compare_total v a > 0 then v else a)
                    (List.hd vs) vs
              | vs, Sqlfe.Ast.Sum ->
                  let ints =
                    List.for_all
                      (function Value.Int _ -> true | _ -> false)
                      vs
                  in
                  let total =
                    List.fold_left (fun a v -> a +. Value.float_exn v) 0.0 vs
                  in
                  if ints then Value.Int (int_of_float total)
                  else Value.Float total
              | vs, Sqlfe.Ast.Avg ->
                  let total =
                    List.fold_left (fun a v -> a +. Value.float_exn v) 0.0 vs
                  in
                  Value.Float (total /. float_of_int (List.length vs))
              | _, Sqlfe.Ast.Count -> assert false)
        in
        List.map
          (fun (key, members) ->
            let witness = match members with r :: _ -> r | [] -> [||] in
            Tuple.make
              (List.map
                 (fun item ->
                   match item with
                   | Sqlfe.Ast.Star -> failwith "star with aggregates"
                   | Sqlfe.Ast.Scalar (e, _) -> (
                       (* must be a group key: take its value *)
                       match
                         List.find_index
                           (fun k -> k = e)
                           s.Sqlfe.Ast.group_by
                       with
                       | Some i -> List.nth key i
                       | None -> Expr.eval binding e witness)
                   | Sqlfe.Ast.Aggregate (fn, arg, _) -> agg fn arg members)
                 s.Sqlfe.Ast.items))
          groups_list
      end
      else
        List.map
          (fun row ->
            if s.Sqlfe.Ast.items = [ Sqlfe.Ast.Star ] then row
            else
              Tuple.make
                (List.map
                   (fun item ->
                     match item with
                     | Sqlfe.Ast.Star -> failwith "mixed star"
                     | Sqlfe.Ast.Scalar (e, _) -> Expr.eval binding e row
                     | Sqlfe.Ast.Aggregate _ -> assert false)
                   s.Sqlfe.Ast.items))
          rows
    in
    (* HAVING filters the projected output by output names *)
    let out_rows =
      match s.Sqlfe.Ast.having with
      | Expr.Ptrue -> out_rows
      | p ->
          let out_binding =
            Array.of_list
              (List.mapi
                 (fun i item ->
                   let name =
                     match item with
                     | Sqlfe.Ast.Star -> "*"
                     | Sqlfe.Ast.Scalar (_, Some a) -> a
                     | Sqlfe.Ast.Scalar (Expr.Col r, None) -> r.Expr.col
                     | Sqlfe.Ast.Scalar (_, None) ->
                         Printf.sprintf "expr%d" (i + 1)
                     | Sqlfe.Ast.Aggregate (_, _, Some a) -> a
                     | Sqlfe.Ast.Aggregate (fn, _, None) ->
                         Printf.sprintf "%s%d"
                           (String.lowercase_ascii (Sqlfe.Ast.agg_name fn))
                           (i + 1)
                   in
                   { Expr.Binding.qualifier = None; name; dtype = None })
                 s.Sqlfe.Ast.items)
          in
          List.filter (fun row -> Expr.satisfies out_binding p row) out_rows
    in
    let out_rows =
      if s.Sqlfe.Ast.distinct then
        List.rev
          (List.fold_left
             (fun acc r -> if List.exists (Tuple.equal r) acc then acc else r :: acc)
             [] out_rows)
      else out_rows
    in
    out_rows

  let rec eval db (q : Sqlfe.Ast.query) : Tuple.t list =
    match q with
    | Sqlfe.Ast.Select s -> eval_select db s
    | Sqlfe.Ast.Union_all qs -> List.concat_map (eval db) qs
end

(* ---- fixture + generators ---------------------------------------------------- *)

let fixture () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE t1 (a INT NOT NULL, b INT, c VARCHAR);
        CREATE TABLE t2 (k INT NOT NULL, v INT);
        CREATE INDEX t1_a ON t1 (a);
        CREATE INDEX t2_k ON t2 (k);");
  let db = Core.Softdb.db sdb in
  let rng = Stats.Rng.create 123 in
  for _ = 1 to 120 do
    ignore
      (Database.insert db ~table:"t1"
         (Tuple.make
            [
              Value.Int (Stats.Rng.int rng 20);
              (if Stats.Rng.coin rng 0.15 then Value.Null
               else Value.Int (Stats.Rng.int rng 50));
              (if Stats.Rng.coin rng 0.1 then Value.Null
               else Value.String (Stats.Rng.pick rng [| "x"; "y"; "z" |]));
            ]))
  done;
  for _ = 1 to 60 do
    ignore
      (Database.insert db ~table:"t2"
         (Tuple.make
            [
              Value.Int (Stats.Rng.int rng 20);
              (if Stats.Rng.coin rng 0.2 then Value.Null
               else Value.Int (Stats.Rng.int rng 100));
            ]))
  done;
  Core.Softdb.runstats sdb;
  (* give the rewriter something to chew on: a valid band between b and a
     would be nonsense here, so install a domain SC and a value set *)
  ignore (Core.Domain_tracker.track sdb ~table:"t1" ~columns:[ "a" ]);
  sdb

let sdb = lazy (fixture ())

let gen_query =
  let open QCheck.Gen in
  let t1col = oneofl [ "a"; "b" ] in
  let cmp = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
  let simple =
    oneof
      [
        map3
          (fun c col v -> Printf.sprintf "t1.%s %s %d" col c v)
          cmp t1col (int_range (-5) 55);
        map (fun col -> Printf.sprintf "t1.%s IS NULL" col) t1col;
        map (fun col -> Printf.sprintf "t1.%s IS NOT NULL" col) t1col;
        map2
          (fun a b ->
            Printf.sprintf "t1.a BETWEEN %d AND %d" (min a b) (max a b))
          (int_range 0 25) (int_range 0 25);
        return "t1.c IN ('x', 'q')";
        return "t1.c = 'y'";
      ]
  in
  let pred =
    oneof
      [
        simple;
        map2 (fun p q -> Printf.sprintf "(%s AND %s)" p q) simple simple;
        map2 (fun p q -> Printf.sprintf "(%s OR %s)" p q) simple simple;
        map (fun p -> Printf.sprintf "NOT (%s)" p) simple;
      ]
  in
  oneof
    [
      (* single-table select *)
      map2
        (fun p distinct ->
          Printf.sprintf "SELECT %s* FROM t1 WHERE %s"
            (if distinct then "DISTINCT " else "")
            p)
        pred bool;
      (* projection with arithmetic *)
      map
        (fun p ->
          Printf.sprintf "SELECT t1.a + 1, t1.b FROM t1 WHERE %s" p)
        pred;
      (* join *)
      map2
        (fun p q ->
          Printf.sprintf
            "SELECT t1.a, t2.v FROM t1, t2 WHERE t1.a = t2.k AND %s AND %s" p
            q)
        pred pred;
      (* aggregates *)
      map
        (fun p ->
          Printf.sprintf
            "SELECT t1.a, COUNT(*) AS n, SUM(t1.b) AS s, MIN(t1.b) AS mn, \
             MAX(t1.b) AS mx, AVG(t1.b) AS av FROM t1 WHERE %s GROUP BY t1.a"
            p)
        pred;
      (* global aggregate *)
      map
        (fun p ->
          Printf.sprintf "SELECT COUNT(*) AS n, SUM(t1.a) AS s FROM t1 WHERE %s" p)
        pred;
      (* grouped aggregate with HAVING over output names *)
      map2
        (fun p n ->
          Printf.sprintf
            "SELECT t1.a, COUNT(*) AS n FROM t1 WHERE %s GROUP BY t1.a              HAVING n >= %d"
            p n)
        pred (int_range 1 5);
      (* union all *)
      map2
        (fun p q ->
          Printf.sprintf
            "(SELECT * FROM t1 WHERE %s) UNION ALL (SELECT * FROM t1 WHERE %s)"
            p q)
        pred pred;
    ]

let same_multiset a b =
  let sort = List.sort Tuple.compare in
  List.length a = List.length b && List.for_all2 Tuple.equal (sort a) (sort b)

let oracle_prop =
  QCheck.Test.make
    ~name:"engine agrees with the naive reference evaluator" ~count:250
    (QCheck.make gen_query ~print:Fun.id)
    (fun sql ->
      let sdb = Lazy.force sdb in
      let q = Sqlfe.Parser.parse_query_string sql in
      let expected = Reference.eval (Core.Softdb.db sdb) q in
      let off = Core.Softdb.query ~flags:Opt.Rewrite.all_off sdb sql in
      let on_ = Core.Softdb.query sdb sql in
      same_multiset expected off.Exec.Executor.rows
      && same_multiset expected on_.Exec.Executor.rows)

let order_by_prop =
  (* ordered comparison for totally-ordered keys *)
  QCheck.Test.make ~name:"ORDER BY produces reference order" ~count:100
    QCheck.(int_range 0 55)
    (fun bound ->
      let sdb = Lazy.force sdb in
      let sql =
        Printf.sprintf
          "SELECT t1.a, COUNT(*) AS n FROM t1 WHERE t1.a <= %d GROUP BY t1.a \
           ORDER BY t1.a"
          bound
      in
      let r = Core.Softdb.query sdb sql in
      let keys =
        List.map (fun row -> Tuple.get row 0) r.Exec.Executor.rows
      in
      let rec ascending = function
        | a :: b :: tl -> Value.compare_total a b < 0 && ascending (b :: tl)
        | _ -> true
      in
      ascending keys)

(* ---- DML: statements that write what they select --------------------------- *)

(* Scans stream rows from live storage, so a statement that read the
   table it writes could see its own writes.  UPDATE and DELETE collect
   their rids before writing and INSERT takes only VALUES; each shape is
   pinned here against the reference: the new contents equal the old
   ones transformed once, and a streaming SELECT afterwards agrees with
   the reference evaluator. *)
let t1_rows sdb = Table.to_list (Database.table_exn (Core.Softdb.db sdb) "t1")

let check_dml ~sql ~expected =
  let sdb = fixture () in
  let before = t1_rows sdb in
  ignore (Core.Softdb.exec sdb sql);
  Alcotest.(check bool)
    ("contents after: " ^ sql) true
    (same_multiset (expected before) (t1_rows sdb));
  let select = "SELECT * FROM t1 WHERE t1.a >= 3" in
  Alcotest.(check bool)
    ("streaming SELECT after: " ^ sql) true
    (same_multiset
       (Reference.eval (Core.Softdb.db sdb)
          (Sqlfe.Parser.parse_query_string select))
       (Core.Softdb.query sdb select).Exec.Executor.rows)

let int_at row i = match Tuple.get row i with Value.Int n -> Some n | _ -> None

(* every qualifying row moves up by one — once, though it still qualifies *)
let test_update_once () =
  check_dml ~sql:"UPDATE t1 SET a = a + 1 WHERE a >= 5" ~expected:(fun rows ->
      List.map
        (fun row ->
          match int_at row 0 with
          | Some a when a >= 5 ->
              let r = Tuple.copy row in
              r.(0) <- Value.Int (a + 1);
              r
          | _ -> row)
        rows)

let test_delete_matching () =
  check_dml ~sql:"DELETE FROM t1 WHERE a < 7" ~expected:(fun rows ->
      List.filter
        (fun row -> match int_at row 0 with Some a -> a >= 7 | None -> true)
        rows)

let test_insert_values () =
  check_dml ~sql:"INSERT INTO t1 VALUES (3, 4, 'x'), (30, NULL, NULL)"
    ~expected:(fun rows ->
      rows
      @ [
          Tuple.make [ Value.Int 3; Value.Int 4; Value.String "x" ];
          Tuple.make [ Value.Int 30; Value.Null; Value.Null ];
        ])

let () =
  Alcotest.run "oracle"
    [
      ( "reference",
        List.map QCheck_alcotest.to_alcotest [ oracle_prop; order_by_prop ] );
      ( "dml",
        [
          Alcotest.test_case "UPDATE writes each row once" `Quick
            test_update_once;
          Alcotest.test_case "DELETE removes the matching rows" `Quick
            test_delete_matching;
          Alcotest.test_case "INSERT VALUES" `Quick test_insert_values;
        ] );
    ]
