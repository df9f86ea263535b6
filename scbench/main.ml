(* The benchmark's entry point.  Run from the repository root
   (scbench/run.py builds it and the server first):

     main.exe --workload serve_scan|serve_rw|analytics --seed N
              --seconds S --trace 0|1 --server _build/default/bin/softdb.exe

   Prints one [metric <name> <value> <unit>] line per measured metric and
   a latency histogram per op kind, then, as the last line, the JSON
   result: with --trace 0 the end_to_end metrics of BENCHMARK.json, with
   --trace 1 its per_layer metrics.  Scratch files (WALs, server logs,
   spans.tsv) go to .scbench_run/<workload>/. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --server EXE";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let ctx =
    {
      Serve.exe = get "--server";
      dir = Filename.concat ".scbench_run" workload;
      seed = int_of_string (get "--seed");
      seconds = float_of_string (get "--seconds");
      trace = get "--trace" = "1";
    }
  in
  let section =
    let j =
      Benchkit.Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
    in
    Benchkit.Json.member (if ctx.Serve.trace then "per_layer" else "end_to_end") j
    |> Benchkit.Json.to_list
    |> List.map (fun m ->
           ( Benchkit.Json.to_str (Benchkit.Json.member "name" m),
             Benchkit.Json.to_str (Benchkit.Json.member "unit" m) ))
  in
  let run =
    match workload with
    | "serve_scan" -> Serve.run_scan
    | "serve_rw" -> Serve.run_rw
    | "analytics" -> Analytics.run
    | _ -> usage ()
  in
  if not (Sys.file_exists ".scbench_run") then Sys.mkdir ".scbench_run" 0o755;
  if Sys.file_exists ctx.Serve.dir then
    Array.iter (fun f -> Sys.remove (Filename.concat ctx.Serve.dir f)) (Sys.readdir ctx.Serve.dir)
  else Sys.mkdir ctx.Serve.dir 0o755;
  at_exit Proc.kill_all;
  let report = run ctx in
  Report.print_human report;
  match Report.json_line report ~wanted:section with
  | Ok line -> print_endline line
  | Error e ->
      prerr_endline ("scbench: " ^ e);
      exit 1
