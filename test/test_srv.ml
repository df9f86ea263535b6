(* The serving subsystem: wire-protocol round-trips, the single-writer
   reader/writer lock, the domain-pool scheduler (admission control,
   deadlines, cancellation, multi-domain fan-out), the LRU-bounded plan
   cache, metrics thread-safety, and whole-server concurrency tests
   driven through the in-memory pipe transport — many client sessions,
   interleaved reads/writes/transactions, session isolation, admission
   rejections, and an SC overturned mid-flight falling back to the
   guarded backup plan — and the eight-session run again over TCP under
   the runtime lock-order witness (the racecheck suite). *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* ---- proto: exact round-trips -------------------------------------------- *)

let nasty = "tab\there|and\nnewline\\backslash\teven|more"

let nasty_row =
  [|
    Value.Int 42;
    Value.Null;
    Value.String nasty;
    Value.Float 0.1;
    Value.Bool true;
    Value.Date (Date.of_ymd 1999 6 15);
  |]

let all_requests : Srv.Proto.request list =
  List.mapi
    (fun i (payload : Srv.Proto.request_payload) ->
      ({ id = i * 7; payload } : Srv.Proto.request))
    [
      Srv.Proto.Hello { client = nasty };
      Srv.Proto.Statement ("SELECT * FROM t WHERE s = '" ^ nasty ^ "'");
      Srv.Proto.Prepare { handle = "h\t1"; sql = "SELECT 1" };
      Srv.Proto.Execute { handle = "h\t1" };
      Srv.Proto.Begin_txn;
      Srv.Proto.Commit_txn;
      Srv.Proto.Rollback_txn;
      Srv.Proto.Set { key = "deadline_ms"; value = "250" };
      Srv.Proto.Cancel { target = 12 };
      Srv.Proto.Ping;
      Srv.Proto.Quit;
    ]

let all_responses : Srv.Proto.response list =
  List.mapi
    (fun i (payload : Srv.Proto.response_payload) ->
      ({ id = i * 13; payload } : Srv.Proto.response))
    [
      Srv.Proto.Hello_ok { session = 3 };
      Srv.Proto.Ok_msg nasty;
      Srv.Proto.Result_set
        {
          columns = [ "a"; "weird\tcol"; "c" ];
          rows = [ nasty_row; [||]; [| Value.Int 1 |] ];
        };
      Srv.Proto.Result_set { columns = []; rows = [] };
      Srv.Proto.Affected 17;
      Srv.Proto.Explained "Scan(purchase)\n  cost=42";
      Srv.Proto.Failed
        { code = Srv.Proto.Deadline_exceeded; message = nasty };
      Srv.Proto.Rejected { retry_after_ms = 35 };
      Srv.Proto.Pong;
      Srv.Proto.Bye;
    ]

let test_request_round_trip () =
  List.iter
    (fun r ->
      let line = Srv.Proto.request_to_line r in
      check tbool "no newline in frame" false (String.contains line '\n');
      check tbool
        (Fmt.str "request round-trips: %a" Srv.Proto.pp_request r)
        true
        (Srv.Proto.request_of_line line = r))
    all_requests

let test_response_round_trip () =
  List.iter
    (fun r ->
      let line = Srv.Proto.response_to_line r in
      check tbool "no newline in frame" false (String.contains line '\n');
      check tbool
        (Fmt.str "response round-trips: %a" Srv.Proto.pp_response r)
        true
        (Srv.Proto.response_of_line line = r))
    all_responses

let test_bad_frames_rejected () =
  let bad l =
    match Srv.Proto.request_of_line l with
    | exception Srv.Proto.Protocol_error _ -> true
    | _ -> false
  in
  check tbool "empty" true (bad "");
  check tbool "no id" true (bad "stmt\tSELECT 1");
  check tbool "bad id" true (bad "Qx\tping");
  check tbool "unknown verb" true (bad "Q1\tfrobnicate");
  check tbool "truncated" true (bad "Q1\tprepare\tonly_handle");
  check tbool "response frame" true (bad "R1\tpong")

let prop_statement_round_trips =
  QCheck.Test.make ~count:200 ~name:"any statement text round-trips"
    QCheck.(pair small_nat printable_string)
    (fun (id, sql) ->
      let r : Srv.Proto.request = { id; payload = Statement sql } in
      Srv.Proto.request_of_line (Srv.Proto.request_to_line r) = r)

(* ---- codec: differential against the list codec ------------------------- *)

(* The reference model: the list-based codec the single-pass one
   replaced — split into a field list, [String.sub] per field,
   [string_of_int] / [Printf.sprintf "%h"] per value, [String.concat].
   The new codec must match it byte for byte when encoding, and agree
   with it on every frame when decoding, except that it rejects negative
   row counts. *)
module Ref = struct
  exception Reject

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let unescape s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '\\' && !i + 1 < n then begin
        (match s.[!i + 1] with
        | '\\' -> Buffer.add_char buf '\\'
        | 't' -> Buffer.add_char buf '\t'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | _ -> raise Reject);
        i := !i + 2
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf

  let value_to_field = function
    | Value.Null -> "N"
    | Value.Int i -> "I" ^ string_of_int i
    | Value.Float f -> "F" ^ Printf.sprintf "%h" f
    | Value.String s -> "S" ^ escape s
    | Value.Bool b -> if b then "B1" else "B0"
    | Value.Date d -> "D" ^ string_of_int d

  let int_field s =
    match int_of_string_opt s with Some i -> i | None -> raise Reject

  let value_of_field s =
    if s = "" then raise Reject;
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'N' -> Value.Null
    | 'I' -> Value.Int (int_field body)
    | 'F' -> (
        match float_of_string_opt body with
        | Some f -> Value.Float f
        | None -> raise Reject)
    | 'S' -> Value.String (unescape body)
    | 'B' -> (
        match body with
        | "1" -> Value.Bool true
        | "0" -> Value.Bool false
        | _ -> raise Reject)
    | 'D' -> Value.Date (int_field body)
    | _ -> raise Reject

  let join = String.concat "\t"
  let split = String.split_on_char '\t'

  let id_field tag head =
    if String.length head > 1 && head.[0] = tag then
      int_field (String.sub head 1 (String.length head - 1))
    else raise Reject

  let request_to_line ({ id; payload } : Srv.Proto.request) =
    join
      (("Q" ^ string_of_int id)
      ::
      (match payload with
      | Hello { client } -> [ "hello"; escape client ]
      | Statement sql -> [ "stmt"; escape sql ]
      | Prepare { handle; sql } -> [ "prepare"; escape handle; escape sql ]
      | Execute { handle } -> [ "execute"; escape handle ]
      | Begin_txn -> [ "begin" ]
      | Commit_txn -> [ "commit" ]
      | Rollback_txn -> [ "rollback" ]
      | Set { key; value } -> [ "set"; escape key; escape value ]
      | Cancel { target } -> [ "cancel"; string_of_int target ]
      | Ping -> [ "ping" ]
      | Quit -> [ "quit" ]))

  let request_of_line line : Srv.Proto.request =
    match split line with
    | [] -> raise Reject
    | head :: fields ->
        let id = id_field 'Q' head in
        let payload : Srv.Proto.request_payload =
          match fields with
          | [ "hello"; client ] -> Hello { client = unescape client }
          | [ "stmt"; sql ] -> Statement (unescape sql)
          | [ "prepare"; handle; sql ] ->
              Prepare { handle = unescape handle; sql = unescape sql }
          | [ "execute"; handle ] -> Execute { handle = unescape handle }
          | [ "begin" ] -> Begin_txn
          | [ "commit" ] -> Commit_txn
          | [ "rollback" ] -> Rollback_txn
          | [ "set"; key; value ] ->
              Set { key = unescape key; value = unescape value }
          | [ "cancel"; target ] -> Cancel { target = int_field target }
          | [ "ping" ] -> Ping
          | [ "quit" ] -> Quit
          | _ -> raise Reject
        in
        { id; payload }

  let codes : (Srv.Proto.error_code * string) list =
    [
      (Parse_error, "parse"); (Exec_error, "exec"); (Txn_error, "txn");
      (Deadline_exceeded, "deadline"); (Cancelled, "cancelled");
      (Session_closed, "closed"); (Shutting_down, "shutdown");
    ]

  let response_to_line ({ id; payload } : Srv.Proto.response) =
    join
      (("R" ^ string_of_int id)
      ::
      (match payload with
      | Hello_ok { session } -> [ "hello"; string_of_int session ]
      | Ok_msg m -> [ "ok"; escape m ]
      | Result_set { columns; rows } ->
          ("rows" :: string_of_int (List.length columns)
          :: List.map escape columns)
          @ (string_of_int (List.length rows)
            :: List.concat_map
                 (fun row ->
                   string_of_int (Array.length row)
                   :: List.map value_to_field (Array.to_list row))
                 rows)
      | Affected n -> [ "affected"; string_of_int n ]
      | Explained text -> [ "explained"; escape text ]
      | Failed { code; message } ->
          [ "error"; List.assoc code codes; escape message ]
      | Rejected { retry_after_ms } ->
          [ "rejected"; string_of_int retry_after_ms ]
      | Pong -> [ "pong" ]
      | Bye -> [ "bye" ]))

  let take n fields =
    let rec go n acc fields =
      if n = 0 then (List.rev acc, fields)
      else
        match fields with
        | [] -> raise Reject
        | f :: tl -> go (n - 1) (f :: acc) tl
    in
    go n [] fields

  let take_row = function
    | [] -> raise Reject
    | n :: rest ->
        let cells, rest = take (int_field n) rest in
        (Array.of_list (List.map value_of_field cells), rest)

  let response_of_line line : Srv.Proto.response =
    match split line with
    | [] -> raise Reject
    | head :: fields ->
        let id = id_field 'R' head in
        let payload : Srv.Proto.response_payload =
          match fields with
          | [ "hello"; session ] -> Hello_ok { session = int_field session }
          | [ "ok"; m ] -> Ok_msg (unescape m)
          | "rows" :: ncols :: rest ->
              let cols, rest = take (int_field ncols) rest in
              let nrows, rest =
                match rest with
                | n :: tl -> (int_field n, tl)
                | [] -> raise Reject
              in
              let rows = ref [] and rest = ref rest in
              for _ = 1 to nrows do
                let row, tl = take_row !rest in
                rows := row :: !rows;
                rest := tl
              done;
              if !rest <> [] then raise Reject;
              Result_set
                { columns = List.map unescape cols; rows = List.rev !rows }
          | [ "affected"; n ] -> Affected (int_field n)
          | [ "explained"; text ] -> Explained (unescape text)
          | [ "error"; code; message ] -> (
              match List.find_opt (fun (_, f) -> f = code) codes with
              | Some (code, _) -> Failed { code; message = unescape message }
              | None -> raise Reject)
          | [ "rejected"; ms ] -> Rejected { retry_after_ms = int_field ms }
          | [ "pong" ] -> Pong
          | [ "bye" ] -> Bye
          | _ -> raise Reject
        in
        { id; payload }
end

(* Seeded generators over every payload, biased toward the values a
   codec gets wrong: int and float extremes, escapes, empty lists. *)
let pick st l = List.nth l (Random.State.int st (List.length l))

let gen_int st =
  match Random.State.int st 4 with
  | 0 ->
      pick st
        [
          0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1; max_int - 1;
          999_999_999_999_999_999; -999_999_999_999_999_999;
          1_000_000_000_000_000_000; -1_000_000_000_000_000_000;
        ]
  | 1 -> Random.State.int st 1000 - 500
  | _ ->
      (* all 63 bits, negatives included *)
      Random.State.bits st
      lor (Random.State.bits st lsl 30)
      lxor (Random.State.bits st lsl 60)

let largest_subnormal = Int64.float_of_bits 0x000f_ffff_ffff_ffffL

(* any bit pattern, the sign bit included: negative normals, subnormals
   and nans as often as positive ones *)
let random_bits_float st =
  let bits = Random.State.int64 st Int64.max_int in
  Int64.float_of_bits
    (if Random.State.bool st then Int64.logor bits Int64.min_int else bits)

let gen_float st =
  match Random.State.int st 3 with
  | 0 ->
      pick st
        [
          nan; infinity; neg_infinity; -0.0; 0.0; 0.1; -1.5; min_float;
          -.min_float; max_float; -.max_float; epsilon_float; 4.9e-324;
          -4.9e-324; 1e300; largest_subnormal; -.largest_subnormal;
        ]
  | 1 -> Random.State.float st 1000.0 -. 500.0
  | _ -> random_bits_float st

let gen_string st =
  let alphabet = "ab\t\n\r\\tnrx" in
  match Random.State.int st 5 with
  | 0 -> ""
  | 1 ->
      String.init (Random.State.int st 4) (fun _ ->
          Char.chr (Random.State.int st 256))
  | _ ->
      String.init
        (Random.State.int st 12)
        (fun _ -> alphabet.[Random.State.int st (String.length alphabet)])

let gen_value st =
  match Random.State.int st 6 with
  | 0 -> Value.Null
  | 1 -> Value.Int (gen_int st)
  | 2 -> Value.Float (gen_float st)
  | 3 -> Value.String (gen_string st)
  | 4 -> Value.Bool (Random.State.bool st)
  | _ -> Value.Date (gen_int st)

let gen_list st max gen =
  List.init (Random.State.int st (max + 1)) (fun _ -> gen st)

let gen_request st : Srv.Proto.request =
  let payload : Srv.Proto.request_payload =
    match Random.State.int st 11 with
    | 0 -> Hello { client = gen_string st }
    | 1 -> Statement (gen_string st)
    | 2 -> Prepare { handle = gen_string st; sql = gen_string st }
    | 3 -> Execute { handle = gen_string st }
    | 4 -> Begin_txn
    | 5 -> Commit_txn
    | 6 -> Rollback_txn
    | 7 -> Set { key = gen_string st; value = gen_string st }
    | 8 -> Cancel { target = gen_int st }
    | 9 -> Ping
    | _ -> Quit
  in
  { id = gen_int st; payload }

let gen_response st : Srv.Proto.response =
  let payload : Srv.Proto.response_payload =
    match Random.State.int st 10 with
    | 0 -> Hello_ok { session = gen_int st }
    | 1 -> Ok_msg (gen_string st)
    | 2 | 3 ->
        Result_set
          {
            columns = gen_list st 3 gen_string;
            rows =
              gen_list st 4 (fun st ->
                  Array.of_list (gen_list st 4 gen_value));
          }
    | 4 -> Affected (gen_int st)
    | 5 -> Explained (gen_string st)
    | 6 -> Failed { code = fst (pick st Ref.codes); message = gen_string st }
    | 7 -> Rejected { retry_after_ms = gen_int st }
    | 8 -> Pong
    | _ -> Bye
  in
  { id = gen_int st; payload }

let fixed : Srv.Proto.response list =
  [
    { id = 0; payload = Result_set { columns = []; rows = [] } };
    { id = 1; payload = Result_set { columns = [ "" ]; rows = [ [||] ] } };
  ]

let test_codec_encodes_byte_identical () =
  let st = Random.State.make [| 0xc0dec |] in
  List.iter
    (fun r ->
      check Alcotest.string "response bytes" (Ref.response_to_line r)
        (Srv.Proto.response_to_line r))
    (fixed @ all_responses);
  List.iter
    (fun r ->
      check Alcotest.string "request bytes" (Ref.request_to_line r)
        (Srv.Proto.request_to_line r))
    all_requests;
  for _ = 1 to 20_000 do
    let q = gen_request st and r = gen_response st in
    let q_line = Srv.Proto.request_to_line q
    and r_line = Srv.Proto.response_to_line r in
    if q_line <> Ref.request_to_line q then
      Alcotest.failf "request encodes differently: %S" q_line;
    if r_line <> Ref.response_to_line r then
      Alcotest.failf "response encodes differently: %S" r_line;
    if compare (Srv.Proto.request_of_line q_line) q <> 0 then
      Alcotest.failf "request does not round-trip: %S" q_line;
    if compare (Srv.Proto.response_of_line r_line) r <> 0 then
      Alcotest.failf "response does not round-trip: %S" r_line
  done

(* The writer prints a normal float's "%h" image itself and hands the
   rest (zero, subnormals, infinities, nan) to the C primitive; both must
   match [Printf.sprintf "%h"] byte for byte, whatever the sign. *)
let test_codec_hex_floats () =
  let st = Random.State.make [| 0x4ef |] in
  let same f =
    let want = "F" ^ Printf.sprintf "%h" f in
    let got = Wal.value_to_field (Value.Float f) in
    if got <> want then Alcotest.failf "%h prints %S, expected %S" f got want
  in
  List.iter same
    [
      0.0; -0.0; 1.0; -1.0; 0.5; -2.0; min_float; -.min_float; max_float;
      -.max_float; largest_subnormal; -.largest_subnormal; 4.9e-324;
      -4.9e-324; infinity; neg_infinity; nan; -.nan; epsilon_float;
      1.0 +. epsilon_float; -1.0 -. epsilon_float; 0.1; -0.1; 1e300; -1e-300;
    ];
  for _ = 1 to 200_000 do
    same (random_bits_float st)
  done;
  for _ = 1 to 20_000 do
    same (Random.State.float st 2e6 -. 1e6)
  done

(* The server's send path: one buffer, reused across the whole corpus
   above, holds exactly [response_to_line r ^ "\n"] for every frame —
   whatever longer frame it held before. *)
let test_codec_frame_buffer () =
  let st = Random.State.make [| 0xc0dec |] in
  let buf = ref Bytes.empty in
  let same (r : Srv.Proto.response) =
    let line = Srv.Proto.response_to_line r ^ "\n" in
    let n = Srv.Proto.response_frame buf r in
    if n <> String.length line || Bytes.sub_string !buf 0 n <> line then
      Alcotest.failf "frame differs from the line: %S" line
  in
  List.iter same (fixed @ all_responses);
  for _ = 1 to 20_000 do
    ignore (gen_request st : Srv.Proto.request);
    same (gen_response st)
  done

(* Mutations that land on field boundaries and on the integer spellings
   only the [int_of_string] fallback accepts. *)
let tokens =
  [
    ""; "-1"; "0"; "1"; "-"; "+5"; "0x1f"; "0b101"; "1_000"; "-0";
    "99999999999999999999"; "4611686018427387903"; "-4611686018427387904";
    "4611686018427387904"; "N"; "I-0"; "I+7"; "I0x10"; "F0x1p3"; "Fnan";
    "F1e5"; "S\\"; "S\\q"; "B1"; "B2"; "D-3"; "rows"; "pong"; "ok";
  ]

let mutate st line =
  let n = String.length line in
  let at () = Random.State.int st (n + 1) in
  match Random.State.int st 5 with
  | 0 -> String.sub line 0 (at ())
  | 1 ->
      let i = at () in
      String.sub line 0 i ^ "\t" ^ String.sub line i (n - i)
  | 2 when n > 0 ->
      let b = Bytes.of_string line in
      Bytes.set b (Random.State.int st n) (Char.chr (Random.State.int st 256));
      Bytes.to_string b
  | 3 -> line ^ "\t" ^ pick st tokens
  | _ ->
      let fields = Array.of_list (String.split_on_char '\t' line) in
      fields.(Random.State.int st (Array.length fields)) <- pick st tokens;
      String.concat "\t" (Array.to_list fields)

(* the one frame shape the new decoder rejects and the list codec took *)
let negative_row_count line =
  match String.split_on_char '\t' line with
  | _ :: "rows" :: ncols :: rest -> (
      match int_of_string_opt ncols with
      | Some c when c >= 0 && c < List.length rest -> (
          match int_of_string_opt (List.nth rest c) with
          | Some n -> n < 0
          | None -> false)
      | _ -> false)
  | _ -> false

let test_codec_decodes_like_reference () =
  let st = Random.State.make [| 0xf00d |] in
  let agree name ours theirs line =
    let theirs = try Some (theirs line) with Ref.Reject -> None in
    match ours line with
    | v -> (
        match theirs with
        | Some v' when compare v v' = 0 -> ()
        | _ -> Alcotest.failf "%s decoders disagree on %S" name line)
    | exception Srv.Proto.Protocol_error _ ->
        if theirs <> None && not (negative_row_count line) then
          Alcotest.failf "%s decoder rejects a valid frame %S" name line
    | exception e ->
        Alcotest.failf "%s decoder raised %s on %S" name
          (Printexc.to_string e) line
  in
  let frames = ref 0 in
  while !frames < 120_000 do
    let line =
      if Random.State.bool st then
        Srv.Proto.response_to_line (gen_response st)
      else Srv.Proto.request_to_line (gen_request st)
    in
    let rec go line k =
      agree "request" Srv.Proto.request_of_line Ref.request_of_line line;
      agree "response" Srv.Proto.response_of_line Ref.response_of_line line;
      incr frames;
      if k > 0 then go (mutate st line) (k - 1)
    in
    go line (Random.State.int st 4)
  done

let test_negative_row_count_rejected () =
  List.iter
    (fun line ->
      match Srv.Proto.response_of_line line with
      | exception Srv.Proto.Protocol_error _ -> ()
      | r ->
          Alcotest.failf "accepted %S as %a" line Srv.Proto.pp_response r)
    [ "R1\trows\t0\t-1"; "R1\trows\t1\tc\t-2"; "R1\trows\t-1\t0" ]

(* ---- rwlock: the single-writer rule, parked waiters ---------------------- *)

(* Waiters record their wake-ups here: the order the lock hands over. *)
let woken = ref []

let rw_waiter ?deadline name session =
  Srv.Rwlock.waiter ?deadline ~session ~req:0
    ~wake:(fun () -> woken := name :: !woken)
    ()

let with_rwlock f =
  let m = Obs.Metrics.create () in
  let l = Srv.Rwlock.create m in
  woken := [];
  Fun.protect ~finally:(fun () -> Srv.Rwlock.close l) (fun () -> f l m)

let held = function
  | `Held h -> h
  | `Parked -> Alcotest.fail "parked"
  | `Closed -> Alcotest.fail "closed"

let parks what r = check tbool what true (r = `Parked)

let woken_in_order what expected =
  check (Alcotest.list tstr) what expected (List.rev !woken);
  woken := []

let test_rwlock_readers_share () =
  with_rwlock @@ fun l m ->
  let h1 = held (Srv.Rwlock.acquire_read l (rw_waiter "r1" 1)) in
  let h2 = held (Srv.Rwlock.acquire_read l (rw_waiter "r2" 2)) in
  let w3 = rw_waiter "w3" 3 in
  parks "writer parks behind readers" (Srv.Rwlock.acquire_write l w3);
  Srv.Rwlock.release l ~session:1 h1;
  woken_in_order "one reader left: no hand-off" [];
  Srv.Rwlock.release l ~session:2 h2;
  woken_in_order "last reader hands over to the writer" [ "w3" ];
  (* the woken job's re-run takes the grant *)
  let h3 = held (Srv.Rwlock.acquire_write l w3) in
  check tbool "writer holds" true (Srv.Rwlock.holds_write l ~session:3);
  Srv.Rwlock.release l ~session:3 h3;
  check tint "parked write counted" 1
    (Obs.Metrics.counter m "srv.rwlock.parked_writes")

let test_rwlock_writer_excludes () =
  with_rwlock @@ fun l m ->
  let h1 = held (Srv.Rwlock.acquire_write l (rw_waiter "w1" 1)) in
  parks "other reader" (Srv.Rwlock.acquire_read l (rw_waiter "r2" 2));
  parks "other writer" (Srv.Rwlock.acquire_write l (rw_waiter "w3" 3));
  (* the owner's own reads and writes never park, even with waiters
     queued — that is what lets a transaction's statements arrive as
     separate jobs on different domains *)
  let own_read = held (Srv.Rwlock.acquire_read l (rw_waiter "own" 1)) in
  check tbool "own read nests" true (own_read = Srv.Rwlock.Exclusive);
  let again = held (Srv.Rwlock.acquire_write l (rw_waiter "own" 1)) in
  Srv.Rwlock.release l ~session:1 own_read;
  Srv.Rwlock.release l ~session:1 again;
  check tbool "still held at depth 1" true (Srv.Rwlock.holds_write l ~session:1);
  woken_in_order "no hand-off while the owner holds" [];
  Srv.Rwlock.release l ~session:1 h1;
  woken_in_order "the reader queued first" [ "r2" ];
  check tint "parked read counted" 1
    (Obs.Metrics.counter m "srv.rwlock.parked_reads")

let test_rwlock_waiting_writer_blocks_new_readers () =
  with_rwlock @@ fun l _ ->
  let h1 = held (Srv.Rwlock.acquire_read l (rw_waiter "r1" 1)) in
  let w2 = rw_waiter "w2" 2 and r3 = rw_waiter "r3" 3 in
  let r4 = rw_waiter "r4" 4 in
  parks "writer parks behind the reader" (Srv.Rwlock.acquire_write l w2);
  parks "new reader parks behind the waiting writer"
    (Srv.Rwlock.acquire_read l r3);
  parks "so does the next" (Srv.Rwlock.acquire_read l r4);
  Srv.Rwlock.release l ~session:1 h1;
  woken_in_order "the writer before the later readers" [ "w2" ];
  Srv.Rwlock.release l ~session:2 (held (Srv.Rwlock.acquire_write l w2));
  woken_in_order "every reader queued before the next writer" [ "r3"; "r4" ];
  List.iter
    (fun (w, s) ->
      let h = held (Srv.Rwlock.acquire_read l w) in
      check tbool "shared" true (h = Srv.Rwlock.Shared);
      Srv.Rwlock.release l ~session:s h)
    [ (r3, 3); (r4, 4) ]

let test_rwlock_forfeit () =
  with_rwlock @@ fun l _ ->
  ignore (held (Srv.Rwlock.acquire_write l (rw_waiter "w1" 1)));
  ignore (held (Srv.Rwlock.acquire_write l (rw_waiter "w1" 1)));
  let w2 = rw_waiter "w2" 2 in
  parks "other writer" (Srv.Rwlock.acquire_write l w2);
  Srv.Rwlock.forfeit_write l ~session:1;
  check tbool "gone whatever the depth" false
    (Srv.Rwlock.holds_write l ~session:1);
  woken_in_order "handed over on forfeit" [ "w2" ];
  Srv.Rwlock.release l ~session:2 (held (Srv.Rwlock.acquire_write l w2))

(* ---- a tiny latch + barrier for deterministic concurrency ----------------- *)

type latch = {
  m : Mutex.t;
  c : Condition.t;
  mutable open_ : bool;
  mutable waiters : int;
}

let latch () =
  { m = Mutex.create (); c = Condition.create (); open_ = false; waiters = 0 }

let latch_wait l =
  Mutex.lock l.m;
  l.waiters <- l.waiters + 1;
  while not l.open_ do
    Condition.wait l.c l.m
  done;
  Mutex.unlock l.m

let latch_open l =
  Mutex.lock l.m;
  l.open_ <- true;
  Condition.broadcast l.c;
  Mutex.unlock l.m

let latch_waiters l =
  Mutex.lock l.m;
  let n = l.waiters in
  Mutex.unlock l.m;
  n

(* Spin until [cond ()] holds; fail the test after [timeout_s]. *)
let eventually ?(timeout_s = 30.0) what cond =
  let d = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > d then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* A 2-party barrier: both parties must be inside [barrier_wait]
   simultaneously before either returns — the witness that two jobs
   really ran on two domains at the same time. *)
type barrier = { bm : Mutex.t; mutable arrived : int }

let barrier () = { bm = Mutex.create (); arrived = 0 }

let barrier_wait ?(timeout_s = 30.0) b =
  Mutex.lock b.bm;
  b.arrived <- b.arrived + 1;
  Mutex.unlock b.bm;
  let d = Unix.gettimeofday () +. timeout_s in
  let rec spin () =
    Mutex.lock b.bm;
    let n = b.arrived in
    Mutex.unlock b.bm;
    if n >= 2 then ()
    else if Unix.gettimeofday () > d then failwith "barrier timed out"
    else begin
      Unix.sleepf 0.001;
      spin ()
    end
  in
  spin ()

(* A parked deadline needs no releaser: the timer thread takes the
   waiter off the list ungranted and wakes it. *)
let test_rwlock_deadline_timer () =
  with_rwlock @@ fun l m ->
  let h1 = held (Srv.Rwlock.acquire_write l (rw_waiter "w1" 1)) in
  let w2 = rw_waiter ~deadline:(Unix.gettimeofday () +. 0.02) "w2" 2 in
  parks "writer parks" (Srv.Rwlock.acquire_write l w2);
  eventually "the timer wakes the expired waiter" (fun () -> !woken = [ "w2" ]);
  check tint "expiry counted" 1
    (Obs.Metrics.counter m "srv.rwlock.park_expired");
  check tbool "not granted" true (Srv.Rwlock.holds_write l ~session:1);
  Srv.Rwlock.release l ~session:1 h1

(* ---- scheduler: admission, deadlines, cancellation, fan-out --------------- *)

let mk_job ?(session = 0) ?deadline ?(cancelled = fun () -> false) ~on_done
    ~on_expired run =
  {
    Srv.Scheduler.session;
    req_id = 0;
    enqueued_at = Unix.gettimeofday ();
    deadline;
    cancelled;
    run =
      (fun () ->
        run ();
        on_done ();
        `Done);
    expired = on_expired;
  }

let test_scheduler_admission_control () =
  let metrics = Obs.Metrics.create () in
  let s = Srv.Scheduler.create ~workers:1 ~queue_capacity:1 metrics in
  let l = latch () in
  let done_count = ref 0 in
  let bump () = incr done_count in
  let no_expire _ = Alcotest.fail "unexpected expiry" in
  (* job 1 occupies the single worker on the latch *)
  check tbool "job1 admitted" true
    (Srv.Scheduler.submit s
       (mk_job ~on_done:bump ~on_expired:no_expire (fun () -> latch_wait l))
    = `Admitted);
  eventually "worker on the latch" (fun () -> latch_waiters l = 1);
  (* job 2 fills the queue *)
  check tbool "job2 admitted" true
    (Srv.Scheduler.submit s
       (mk_job ~on_done:bump ~on_expired:no_expire (fun () -> ()))
    = `Admitted);
  (* job 3 is deterministically rejected, with a positive retry hint *)
  (match
     Srv.Scheduler.submit s
       (mk_job ~on_done:bump ~on_expired:no_expire (fun () -> ()))
   with
  | `Rejected ms -> check tbool "positive retry-after" true (ms >= 1)
  | _ -> Alcotest.fail "expected rejection");
  check tint "rejection counted" 1
    (Obs.Metrics.counter metrics "srv.jobs_rejected");
  latch_open l;
  eventually "both jobs complete" (fun () -> !done_count = 2);
  Srv.Scheduler.shutdown s;
  check tint "admitted" 2 (Obs.Metrics.counter metrics "srv.jobs_admitted");
  check tint "completed" 2 (Obs.Metrics.counter metrics "srv.jobs_completed")

let test_scheduler_uses_two_domains () =
  let metrics = Obs.Metrics.create () in
  let s = Srv.Scheduler.create ~workers:2 ~queue_capacity:8 metrics in
  let b = barrier () in
  let done_count = ref 0 in
  let no_expire _ = Alcotest.fail "unexpected expiry" in
  for session = 1 to 2 do
    check tbool "barrier job admitted" true
      (Srv.Scheduler.submit s
         (mk_job ~session
            ~on_done:(fun () -> incr done_count)
            ~on_expired:no_expire
            (fun () -> barrier_wait b))
      = `Admitted)
  done;
  (* each barrier job blocks until the other runs: completing both
     proves two jobs executed simultaneously on two domains *)
  eventually "both barrier jobs complete" (fun () -> !done_count = 2);
  check tbool "two domains executed jobs" true
    (Srv.Scheduler.domains_used s >= 2);
  Srv.Scheduler.shutdown s

(* One session's jobs never overlap, whichever worker is free: with
   session 1's first job latched on one worker, the other worker passes
   over session 1's second job to run session 2's, and starts the second
   only once the first is done.  Popping in plain queue order, the free
   worker took the second at once and raced the first for the session. *)
let test_scheduler_one_job_per_session () =
  let metrics = Obs.Metrics.create () in
  let s = Srv.Scheduler.create ~workers:2 ~queue_capacity:8 metrics in
  let l = latch () in
  let log = ref [] and lm = Mutex.create () in
  let note e = Mutex.protect lm (fun () -> log := e :: !log) in
  let seen e = Mutex.protect lm (fun () -> List.mem e !log) in
  let submit session what run =
    check tbool (what ^ " admitted") true
      (Srv.Scheduler.submit s
         (mk_job ~session
            ~on_done:(fun () -> note (what ^ " done"))
            ~on_expired:(fun _ -> Alcotest.fail "unexpected expiry")
            (fun () ->
              note (what ^ " start");
              run ()))
      = `Admitted)
  in
  submit 1 "first" (fun () -> latch_wait l);
  eventually "first on the latch" (fun () -> latch_waiters l = 1);
  submit 1 "second" ignore;
  submit 2 "other" ignore;
  eventually "the other session's job runs" (fun () -> seen "other done");
  check tbool "the second waits for the first" false (seen "second start");
  latch_open l;
  eventually "the second runs" (fun () -> seen "second done");
  check
    Alcotest.(list string)
    "session 1 in order"
    [ "first start"; "first done"; "second start"; "second done" ]
    (List.filter
       (fun e -> not (String.starts_with ~prefix:"other" e))
       (List.rev (Mutex.protect lm (fun () -> !log))));
  Srv.Scheduler.shutdown s

(* A parked job woken after its session queued a later one must still
   run first: park a session's write, queue that session's next
   statement behind a busy worker, then grant the lock.  A woken job
   requeued at the tail would let the later statement start first. *)
let test_scheduler_woken_job_keeps_session_order () =
  let metrics = Obs.Metrics.create () in
  let s = Srv.Scheduler.create ~workers:1 ~queue_capacity:8 metrics in
  let l = latch () in
  let log = ref [] and lm = Mutex.create () in
  let note e = Mutex.protect lm (fun () -> log := e :: !log) in
  let seen e = Mutex.protect lm (fun () -> List.mem e !log) in
  let no_expire _ = Alcotest.fail "unexpected expiry" in
  let parked = ref false in
  let write =
    {
      (mk_job ~session:1 ~on_done:ignore ~on_expired:no_expire ignore) with
      Srv.Scheduler.run =
        (fun () ->
          if not !parked then begin
            parked := true;
            note "write parked";
            `Parked
          end
          else begin
            note "write runs";
            `Done
          end);
    }
  in
  let submit job =
    check tbool "admitted" true (Srv.Scheduler.submit s job = `Admitted)
  in
  submit write;
  eventually "the write parks" (fun () -> seen "write parked");
  submit
    (mk_job ~session:2 ~on_done:ignore ~on_expired:no_expire (fun () ->
         latch_wait l));
  eventually "the worker is busy" (fun () -> latch_waiters l = 1);
  submit
    (mk_job ~session:1
       ~on_done:(fun () -> note "next done")
       ~on_expired:no_expire
       (fun () -> note "next runs"));
  (* the lock is granted: the waker requeues the parked write *)
  Srv.Scheduler.resubmit s write;
  latch_open l;
  eventually "both ran" (fun () -> seen "next done" && seen "write runs");
  check
    Alcotest.(list string)
    "session 1 in submission order"
    [ "write parked"; "write runs"; "next runs"; "next done" ]
    (List.rev (Mutex.protect lm (fun () -> !log)));
  Srv.Scheduler.shutdown s

let test_scheduler_deadline_and_cancel () =
  let metrics = Obs.Metrics.create () in
  let s = Srv.Scheduler.create ~workers:1 ~queue_capacity:8 metrics in
  let l = latch () in
  let no_expire _ = Alcotest.fail "unexpected expiry" in
  let expired_with = ref [] in
  let note code = expired_with := code :: !expired_with in
  ignore
    (Srv.Scheduler.submit s
       (mk_job ~on_done:(fun () -> ()) ~on_expired:no_expire (fun () ->
            latch_wait l)));
  eventually "worker on the latch" (fun () -> latch_waiters l = 1);
  (* queued with an already-expired deadline: must never run *)
  ignore
    (Srv.Scheduler.submit s
       (mk_job
          ~deadline:(Unix.gettimeofday () -. 1.0)
          ~on_done:(fun () -> Alcotest.fail "expired job ran")
          ~on_expired:note
          (fun () -> ())));
  (* queued already-cancelled: must never run *)
  ignore
    (Srv.Scheduler.submit s
       (mk_job
          ~cancelled:(fun () -> true)
          ~on_done:(fun () -> Alcotest.fail "cancelled job ran")
          ~on_expired:note
          (fun () -> ())));
  latch_open l;
  eventually "both expiries delivered" (fun () ->
      List.length !expired_with = 2);
  check tbool "deadline code delivered" true
    (List.mem Srv.Proto.Deadline_exceeded !expired_with);
  check tbool "cancel code delivered" true
    (List.mem Srv.Proto.Cancelled !expired_with);
  check tint "expired counted" 1 (Obs.Metrics.counter metrics "srv.jobs_expired");
  check tint "cancelled counted" 1
    (Obs.Metrics.counter metrics "srv.jobs_cancelled");
  Srv.Scheduler.shutdown s

let test_scheduler_shutdown_expires_queue () =
  let metrics = Obs.Metrics.create () in
  let s = Srv.Scheduler.create ~workers:1 ~queue_capacity:8 metrics in
  let l = latch () in
  let saw = ref [] in
  ignore
    (Srv.Scheduler.submit s
       (mk_job ~on_done:(fun () -> ()) ~on_expired:(fun _ -> ()) (fun () ->
            latch_wait l)));
  eventually "worker on the latch" (fun () -> latch_waiters l = 1);
  ignore
    (Srv.Scheduler.submit s
       (mk_job
          ~on_done:(fun () -> Alcotest.fail "ran after shutdown")
          ~on_expired:(fun c -> saw := c :: !saw)
          (fun () -> ())));
  (* release the latch only after stop is flagged: shutdown must drain
     the queued job as Shutting_down, not run it *)
  let th = Thread.create (fun () -> Srv.Scheduler.shutdown s) () in
  eventually "submissions refused" (fun () ->
      Srv.Scheduler.submit s
        (mk_job ~on_done:(fun () -> ()) ~on_expired:(fun _ -> ()) (fun () -> ()))
      = `Shutting_down);
  latch_open l;
  Thread.join th;
  check tbool "queued job drained as Shutting_down" true
    (!saw = [ Srv.Proto.Shutting_down ])

(* ---- plan cache: capacity + LRU ------------------------------------------- *)

let small_purchase_sdb ?(rows = 1500) () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let test_plan_cache_lru_eviction () =
  let sdb = small_purchase_sdb () in
  let cache = Core.Plan_cache.create ~capacity:2 sdb in
  let sql_of_day d = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 d) in
  ignore (Core.Plan_cache.prepare cache ~name:"a" (sql_of_day 1));
  ignore (Core.Plan_cache.prepare cache ~name:"b" (sql_of_day 2));
  (* touch a so b is the least recently used *)
  ignore (Core.Plan_cache.execute cache "a");
  ignore (Core.Plan_cache.prepare cache ~name:"c" (sql_of_day 3));
  check tbool "a survives (recently used)" true
    (Core.Plan_cache.find cache "a" <> None);
  check tbool "b evicted (LRU)" true (Core.Plan_cache.find cache "b" = None);
  check tbool "c present" true (Core.Plan_cache.find cache "c" <> None);
  let st = Core.Plan_cache.stats cache in
  check tint "entries at capacity" 2 st.Core.Plan_cache.entries;
  check tint "capacity reported" 2 st.Core.Plan_cache.capacity;
  check tint "eviction counted" 1 st.Core.Plan_cache.evictions;
  check tint "eviction metric" 1
    (Obs.Metrics.counter (Core.Softdb.metrics sdb) "plan_cache.evictions");
  (* sys.plan_cache exposes the recency stamps *)
  let r =
    Core.Softdb.query_baseline sdb
      "SELECT name, last_used FROM sys.plan_cache"
  in
  check tint "two sys.plan_cache rows" 2 (List.length r.Exec.Executor.rows)

let test_plan_cache_rejects_bad_capacity () =
  let sdb = small_purchase_sdb ~rows:50 () in
  check tbool "capacity 0 refused" true
    (match Core.Plan_cache.create ~capacity:0 sdb with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- metrics: thread-safety across domains -------------------------------- *)

let test_metrics_parallel_updates () =
  let m = Obs.Metrics.create () in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Metrics.incr m "par.counter";
              Obs.Metrics.add_gauge m "par.gauge" 1.0;
              Obs.Metrics.observe m "par.sample" (float_of_int ((d * i) mod 7));
              (* snapshotting is O(samples): keep it concurrent with the
                 updates but off the hot path *)
              if i mod 500 = 0 then ignore (Obs.Metrics.snapshot m)
            done))
  in
  List.iter Domain.join domains;
  check tint "no lost counter increments" (4 * per_domain)
    (Obs.Metrics.counter m "par.counter");
  check tbool "no lost gauge adjustments" true
    (Obs.Metrics.gauge m "par.gauge" = Some (float_of_int (4 * per_domain)));
  check tint "no lost samples" (4 * per_domain)
    (List.length (Obs.Metrics.samples m "par.sample"))

(* ---- whole-server tests over the pipe transport --------------------------- *)

type client = { conn : Srv.Transport.t; mutable next_id : int }

let connect server =
  let client_end, server_end = Srv.Transport.pipe () in
  ignore (Srv.Server.serve_connection_async server server_end);
  { conn = client_end; next_id = 0 }

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  go 0

let send cl payload =
  cl.next_id <- cl.next_id + 1;
  cl.conn.Srv.Transport.send
    (Srv.Proto.request_to_line { Srv.Proto.id = cl.next_id; payload });
  cl.next_id

let recv cl =
  match cl.conn.Srv.Transport.recv () with
  | None -> Alcotest.fail "connection closed unexpectedly"
  | Some line -> Srv.Proto.response_of_line line

(* Synchronous call: send, await the matching response. *)
let rpc cl payload =
  let id = send cl payload in
  let r = recv cl in
  check tint "response correlates" id r.Srv.Proto.id;
  r.Srv.Proto.payload

(* Synchronous call with retry on admission rejection. *)
let rec rpc_retry cl payload =
  match rpc cl payload with
  | Srv.Proto.Rejected { retry_after_ms } ->
      Unix.sleepf (float_of_int retry_after_ms /. 1000.0);
      rpc_retry cl payload
  | p -> p

let quit cl =
  (match rpc cl Srv.Proto.Quit with
  | Srv.Proto.Bye -> ()
  | p -> Alcotest.failf "expected bye, got %a" Srv.Proto.pp_response
           { Srv.Proto.id = 0; payload = p });
  cl.conn.Srv.Transport.close ()

let scalar_int = function
  | Srv.Proto.Result_set { rows = [ [| Value.Int n |] ]; _ } -> n
  | p ->
      Alcotest.failf "expected a single int, got %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p }

let is_ok = function
  | Srv.Proto.Ok_msg _ | Srv.Proto.Hello_ok _ -> true
  | _ -> false

let count_purchases cl =
  scalar_int (rpc_retry cl (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase"))

let counter sdb name = Obs.Metrics.counter (Core.Softdb.metrics sdb) name

(* Eight clients hammer one server: point reads, prepared executes, and
   rollback-only write transactions.  Two of the clients additionally
   meet on a barrier inside a virtual-table generator, which can only
   resolve if their two queries execute simultaneously on two worker
   domains.  [listen server] returns the function that opens one client
   connection to [server] (pipe or TCP).  With [ddl_online], one more
   session runs CREATE INDEX ... ONLINE while the clients run.  The
   build and the write transactions wait for the rendezvous: a writer
   parked behind the first rendezvous read would queue the second one
   behind itself, and the two reads wait for each other inside the
   lock. *)
let concurrent_sessions ?(ddl_online = false) ~listen () =
  let sdb = small_purchase_sdb () in
  let b = barrier () in
  Database.register_virtual (Core.Softdb.db sdb) ~name:"sys.rendezvous"
    ~schema:
      (Schema.make "sys.rendezvous"
         [ Schema.column ~nullable:false "arrived" Value.TInt ])
    (fun () ->
      barrier_wait b;
      [ Tuple.make [ Value.Int 2 ] ]);
  let server = Srv.Server.create ~workers:2 ~queue_capacity:64 sdb in
  let connect = listen server in
  let n_clients = 8 and n_rounds = 12 in
  let failures = Array.make n_clients None in
  let run_client c () =
    try
      let cl = connect () in
      (match rpc cl (Srv.Proto.Hello { client = Printf.sprintf "c%d" c }) with
      | Srv.Proto.Hello_ok _ -> ()
      | _ -> failwith "hello failed");
      let hot = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 3 5) in
      if not (is_ok (rpc_retry cl (Srv.Proto.Prepare { handle = "hot"; sql = hot })))
      then failwith "prepare failed";
      (* clients 0 and 1 must overlap on two domains *)
      if c < 2 then
        if
          scalar_int (rpc_retry cl (Srv.Proto.Statement "SELECT arrived FROM sys.rendezvous"))
          <> 2
        then failwith "rendezvous failed";
      for round = 1 to n_rounds do
        (match
           rpc_retry cl
             (Srv.Proto.Statement
                (Workload.Queries.purchase_ship_eq
                   (Date.of_ymd 1999 ((round mod 12) + 1) ((c mod 27) + 1))))
         with
        | Srv.Proto.Result_set _ -> ()
        | _ -> failwith "point read failed");
        (match rpc_retry cl (Srv.Proto.Execute { handle = "hot" }) with
        | Srv.Proto.Result_set _ -> ()
        | _ -> failwith "prepared execute failed");
        if round mod 4 = 0 then begin
          eventually "the rendezvous" (fun () ->
              Mutex.protect b.bm (fun () -> b.arrived >= 2));
          (* write transaction, rolled back so the data stays fixed *)
          if not (is_ok (rpc_retry cl Srv.Proto.Begin_txn)) then
            failwith "begin failed";
          (match
             rpc_retry cl
               (Srv.Proto.Statement
                  (Printf.sprintf
                     "INSERT INTO purchase VALUES (%d, 1, DATE '1999-01-05', \
                      DATE '1999-01-15', 9.0, 1, 'north')"
                     (800_000 + (c * 100) + round)))
           with
          | Srv.Proto.Affected 1 -> ()
          | _ -> failwith "txn insert failed");
          if not (is_ok (rpc_retry cl Srv.Proto.Rollback_txn)) then
            failwith "rollback failed"
        end
      done;
      quit cl
    with e -> failures.(c) <- Some (Printexc.to_string e)
  in
  let ddl_failure = ref None in
  let run_ddl () =
    try
      let cl = connect () in
      (match rpc cl (Srv.Proto.Hello { client = "ddl" }) with
      | Srv.Proto.Hello_ok _ -> ()
      | _ -> failwith "hello failed");
      eventually "the rendezvous" (fun () ->
          Mutex.protect b.bm (fun () -> b.arrived >= 2));
      (match
         rpc_retry cl
           (Srv.Proto.Statement
              "CREATE INDEX purchase_ship_online ON purchase (ship_date) \
               ONLINE")
       with
      | Srv.Proto.Ok_msg _ -> ()
      | p ->
          failwith
            (Fmt.str "online build answered %a" Srv.Proto.pp_response
               { Srv.Proto.id = 0; payload = p }));
      quit cl
    with e -> ddl_failure := Some (Printexc.to_string e)
  in
  let threads =
    List.init n_clients (fun c -> Thread.create (run_client c) ())
    @ if ddl_online then [ Thread.create run_ddl () ] else []
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun c f ->
      match f with
      | Some msg -> Alcotest.failf "client %d: %s" c msg
      | None -> ())
    failures;
  Option.iter (Alcotest.failf "ddl session: %s") !ddl_failure;
  let n_sessions = n_clients + 1 + if ddl_online then 1 else 0 in
  (* every rolled-back transaction left no trace *)
  let cl = connect () in
  check tint "all writes rolled back" 1500 (count_purchases cl);
  (* the server reports its own traffic: sys.sessions over the wire *)
  (match
     rpc_retry cl
       (Srv.Proto.Statement
          "SELECT session_id, queries, writes FROM sys.sessions")
   with
  | Srv.Proto.Result_set { rows; _ } ->
      check tbool
        (Printf.sprintf "at least %d sessions listed" n_sessions)
        true
        (List.length rows >= n_sessions);
      let busy =
        List.filter
          (fun row ->
            match (Tuple.get row 1, Tuple.get row 2) with
            | Value.Int q, Value.Int w -> q >= n_rounds * 2 && w >= 9
            | _ -> false)
          rows
      in
      check tint "eight sessions saw full traffic" 8 (List.length busy)
  | _ -> Alcotest.fail "sys.sessions query failed");
  quit cl;
  check tbool "queries ran on >= 2 domains" true
    (Srv.Scheduler.domains_used (Srv.Server.scheduler server) >= 2);
  let m = Core.Softdb.metrics sdb in
  check tbool "jobs completed metric saw the traffic" true
    (Obs.Metrics.counter m "srv.jobs_completed" > n_clients * n_rounds);
  check tint "all sessions opened" n_sessions
    (Obs.Metrics.counter m "srv.sessions_opened");
  check tbool "prepared plan shared across sessions" true
    (Obs.Metrics.counter m "plan_cache.shared_hits" >= n_clients - 1);
  if ddl_online then
    check tint "the online build finished (built or demoted) once" 1
      (Obs.Metrics.counter m "idx.online_builds"
      + Obs.Metrics.counter m "idx.online_demotions");
  Srv.Server.shutdown server

let test_concurrent_sessions () =
  concurrent_sessions ~listen:(fun server () -> connect server) ()

(* The acquisition-order edges the TCP run exhibits, (held, acquired):
   every run shows exactly these.  A new nesting pattern fails the run
   by name: review it against the rank table in lib/srv/session.ml, then
   add it here.  The
   two [srv.server.registry] targets come from the sys.sessions read at
   the end of the run. *)
let pinned_edges =
  [
    ("db.rwlock", "core.plan_cache");
    ("db.rwlock", "idx.lifecycle");
    ("db.rwlock", "obs.metrics");
    ("db.rwlock", "obs.query_log");
    ("db.rwlock", "srv.rwlock.state");
    ("db.rwlock", "srv.server.registry");
    ("srv.server.registry", "obs.metrics");
    ("srv.session", "core.plan_cache");
    ("srv.session", "db.rwlock");
    ("srv.session", "idx.lifecycle");
    ("srv.session", "obs.metrics");
    ("srv.session", "obs.query_log");
    ("srv.session", "srv.rwlock.state");
    ("srv.session", "srv.server.registry");
  ]

(* The same run over real TCP with the runtime lock-order witness armed
   and an online index build racing the clients: no live violation, the
   observed graph lint-clean against the real tree's rank table (no
   inversion, no undeclared lock, no stale rank), the observed edges
   exactly the pinned list, and locks nested at most three deep.
   [Server.shutdown] must also wake the accept loop blocked in
   [accept]. *)
let test_concurrent_sessions_tcp () =
  Obs.Lockdep.enable ();
  Obs.Lockdep.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Lockdep.reset ();
      Obs.Lockdep.disable ())
  @@ fun () ->
  let accepting = ref None and accept_done = Atomic.make false in
  let listen server =
    let port, accept_loop = Srv.Server.listen_tcp server ~port:0 in
    accepting :=
      Some
        (Thread.create
           (fun () ->
             accept_loop ();
             Atomic.set accept_done true)
           ());
    fun () -> { conn = Srv.Transport.connect ~port (); next_id = 0 }
  in
  concurrent_sessions ~ddl_online:true ~listen ();
  eventually ~timeout_s:5.0 "accept loop returns after shutdown" (fun () ->
      Atomic.get accept_done);
  Option.iter Thread.join !accepting;
  check (Alcotest.list tstr) "no runtime witness violations" []
    (Obs.Lockdep.violations ());
  (match Source_root.find () with
  | None -> Alcotest.fail "no dune-project above the working directory"
  | Some root ->
      let sources =
        Check.Ann.read_sources (Check.Driver.lock_scan_files ~root)
      in
      check (Alcotest.list tstr) "lockdep graph lint-clean against the tree" []
        (List.map (Fmt.str "%a" Check.Diag.pp)
           (Check.Diag.errors
              (Check.Lockdep_lint.lint ~sources (Obs.Lockdep.graph ())))));
  let observed =
    List.map (fun (held, acquired, _) -> (held, acquired))
      (Obs.Lockdep.edge_list ())
  in
  check (Alcotest.list (Alcotest.pair tstr tstr)) "every observed edge pinned" []
    (List.filter (fun e -> not (List.mem e pinned_edges)) observed);
  check
    (Alcotest.list (Alcotest.pair tstr tstr))
    "every pinned edge observed" []
    (List.filter (fun e -> not (List.mem e observed)) pinned_edges);
  check tint "max held depth" 3 (Obs.Lockdep.max_held_depth ())

(* Session state is private: prepared handles don't leak, transactions
   are per-session, writes serialize behind the single-writer lock. *)
let test_session_isolation () =
  let sdb = small_purchase_sdb ~rows:200 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and bclient = connect server in
  ignore (rpc a (Srv.Proto.Hello { client = "a" }));
  ignore (rpc bclient (Srv.Proto.Hello { client = "b" }));
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 3 5) in
  check tbool "a prepares" true
    (is_ok (rpc_retry a (Srv.Proto.Prepare { handle = "mine"; sql })));
  (* the handle is session-private even though the plan is shared *)
  (match rpc_retry bclient (Srv.Proto.Execute { handle = "mine" }) with
  | Srv.Proto.Failed { code = Srv.Proto.Exec_error; _ } -> ()
  | _ -> Alcotest.fail "b must not see a's handle");
  (* commit in b is an error while b has no transaction, whatever a does *)
  check tbool "a begins" true (is_ok (rpc_retry a Srv.Proto.Begin_txn));
  (match rpc_retry bclient Srv.Proto.Commit_txn with
  | Srv.Proto.Failed { code = Srv.Proto.Txn_error; _ } -> ()
  | _ -> Alcotest.fail "b has no transaction to commit");
  (* a's in-transaction insert, then b's autocommit insert: b's write
     must wait out a's exclusive lock, then land after the rollback *)
  (match
     rpc_retry a
       (Srv.Proto.Statement
          "INSERT INTO purchase VALUES (810001, 1, DATE '1999-01-05', DATE \
           '1999-01-15', 9.0, 1, 'north')")
   with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "a's txn insert failed");
  let b_insert =
    send bclient
      (Srv.Proto.Statement
         "INSERT INTO purchase VALUES (820001, 1, DATE '1999-01-05', DATE \
          '1999-01-15', 9.0, 1, 'north')")
  in
  check tbool "a rolls back" true (is_ok (rpc_retry a Srv.Proto.Rollback_txn));
  let rb = recv bclient in
  check tint "b's insert answered" b_insert rb.Srv.Proto.id;
  (match rb.Srv.Proto.payload with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "b's autocommit insert failed");
  (* an exception guard_engine's explicit list misses (here
     Binding.Unresolved from a bad column name) must still answer the
     request — a silently swallowed job leaves the client waiting
     forever *)
  (match
     rpc_retry a (Srv.Proto.Statement "SELECT nosuchcol FROM purchase")
   with
  | Srv.Proto.Failed { code = Srv.Proto.Exec_error; message } ->
      check tbool "names the column" true
        (contains_substring message "nosuchcol")
  | _ -> Alcotest.fail "bad column must answer with an exec error");
  check tint "only b's row committed" 201 (count_purchases a);
  quit a;
  quit bclient;
  Srv.Server.shutdown server

(* A request whose deadline passes while another session holds the
   write lock answers Deadline_exceeded instead of stalling forever. *)
let test_deadline_under_lock_contention () =
  let sdb = small_purchase_sdb ~rows:200 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and bclient = connect server in
  check tbool "a begins" true (is_ok (rpc_retry a Srv.Proto.Begin_txn));
  check tbool "b sets a tight deadline" true
    (is_ok (rpc bclient (Srv.Proto.Set { key = "deadline_ms"; value = "80" })));
  (match
     rpc_retry bclient
       (Srv.Proto.Statement
          "INSERT INTO purchase VALUES (830001, 1, DATE '1999-01-05', DATE \
           '1999-01-15', 9.0, 1, 'north')")
   with
  | Srv.Proto.Failed { code = Srv.Proto.Deadline_exceeded; _ } -> ()
  | p ->
      Alcotest.failf "expected deadline failure, got %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p });
  check tint "b's insert parked" 1
    (counter sdb "srv.rwlock.parked_writes");
  check tint "and its wait expired" 1 (counter sdb "srv.rwlock.park_expired");
  check tbool "a commits fine afterwards" true
    (is_ok (rpc_retry a Srv.Proto.Commit_txn));
  quit a;
  quit bclient;
  Srv.Server.shutdown server

(* Admission rejection and queue-time cancellation, end to end: a latch
   inside a virtual table pins the single worker, a queued request gets
   cancelled, an overflowing one gets rejected with a retry hint. *)
let test_admission_and_cancel_through_server () =
  let sdb = small_purchase_sdb ~rows:50 () in
  let l = latch () in
  Database.register_virtual (Core.Softdb.db sdb) ~name:"sys.latch"
    ~schema:
      (Schema.make "sys.latch"
         [ Schema.column ~nullable:false "ok" Value.TBool ])
    (fun () ->
      latch_wait l;
      [ Tuple.make [ Value.Bool true ] ]);
  let server = Srv.Server.create ~workers:1 ~queue_capacity:1 sdb in
  let a = connect server and bclient = connect server in
  let a_latch = send a (Srv.Proto.Statement "SELECT ok FROM sys.latch") in
  eventually "worker pinned on the latch" (fun () -> latch_waiters l = 1);
  (* fills the queue's one slot *)
  let b_queued = send bclient (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase") in
  eventually "queue holds b's query" (fun () ->
      Srv.Scheduler.queue_depth (Srv.Server.scheduler server) = 1);
  (* overflow: deterministic rejection, answered inline *)
  let b_over = send bclient (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase") in
  let r = recv bclient in
  check tint "rejection answers the overflowing id" b_over r.Srv.Proto.id;
  (match r.Srv.Proto.payload with
  | Srv.Proto.Rejected { retry_after_ms } ->
      check tbool "positive retry hint" true (retry_after_ms >= 1)
  | p ->
      Alcotest.failf "expected rejection, got %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p });
  (* cancel the queued query: inline ack now, Cancelled verdict at dequeue *)
  let c_id = send bclient (Srv.Proto.Cancel { target = b_queued }) in
  let r = recv bclient in
  check tint "cancel acked inline" c_id r.Srv.Proto.id;
  latch_open l;
  let r = recv bclient in
  check tint "cancelled query answered" b_queued r.Srv.Proto.id;
  (match r.Srv.Proto.payload with
  | Srv.Proto.Failed { code = Srv.Proto.Cancelled; _ } -> ()
  | p ->
      Alcotest.failf "expected cancelled, got %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p });
  let r = recv a in
  check tint "latched query finally answers" a_latch r.Srv.Proto.id;
  quit a;
  quit bclient;
  Srv.Server.shutdown server

(* The paper's §4.1 story under concurrency: session a executes through
   a prepared fast plan predicated on an absolute soft constraint;
   session b's insert overturns the ASC mid-flight; a's next execute
   must flag-and-revert to the guarded backup plan and see b's row. *)
let test_sc_overturn_falls_back_across_sessions () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows = 3000; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"cache_band" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and bclient = connect server in
  let day = Date.of_ymd 1999 6 15 in
  let sql = Workload.Queries.purchase_ship_eq day in
  check tbool "a prepares the hot query" true
    (is_ok (rpc_retry a (Srv.Proto.Prepare { handle = "hot"; sql })));
  let rows_before =
    match rpc_retry a (Srv.Proto.Execute { handle = "hot" }) with
    | Srv.Proto.Result_set { rows; _ } -> List.length rows
    | _ -> Alcotest.fail "first execute failed"
  in
  let entry () =
    Option.get
      (Core.Plan_cache.find (Srv.Server.plan_cache server) ("sql:" ^ sql))
  in
  check tint "first run used the fast plan" 1 (entry ()).Core.Plan_cache.fast_runs;
  check tbool "fast plan depends on the band" true
    (List.mem "cache_band"
       (entry ()).Core.Plan_cache.report.Opt.Explain.guards);
  (* b overturns the ASC with a violating row shipped on the probe day *)
  (match
     rpc_retry bclient
       (Srv.Proto.Statement
          "INSERT INTO purchase VALUES (900001, 1, DATE '1999-01-05', DATE \
           '1999-06-15', 100.0, 3, 'north')")
   with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "violating insert failed");
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "cache_band")
  in
  check tbool "asc overturned mid-flight" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  (* a executes again through the same handle: guarded fallback *)
  (match rpc_retry a (Srv.Proto.Execute { handle = "hot" }) with
  | Srv.Proto.Result_set { rows; _ } ->
      check tint "backup sees the new row" (rows_before + 1) (List.length rows);
      check tbool "new row in the answer" true
        (List.exists (fun row -> Tuple.get row 0 = Value.Int 900001) rows)
  | _ -> Alcotest.fail "post-overturn execute failed");
  check tint "backup plan ran" 1 (entry ()).Core.Plan_cache.backup_runs;
  quit a;
  quit bclient;
  Srv.Server.shutdown server

(* ---- the serving workload and partitioned tables through the server ------- *)

(* The serving workload's request: a month-wide ship_date window under
   the shipping band with its exception table.  Over the wire the plan is
   the paper's §4.4 union — an order_date IndexScan beside the
   exceptions — and the answer is the rewrite-free one. *)
let test_served_month_window_plan () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 3000 }
    (Core.Softdb.db sdb);
  List.iter
    (fun sql -> ignore (Core.Softdb.exec sdb sql))
    [
      "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
       order_date BETWEEN 0 AND 21) SOFT";
      "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w";
    ];
  Core.Softdb.runstats sdb;
  let server = Srv.Server.create ~workers:2 sdb in
  let cl = connect server in
  let sql =
    Workload.Queries.purchase_ship_range (Date.of_ymd 1999 7 1)
      (Date.of_ymd 1999 7 30)
  in
  (match rpc_retry cl (Srv.Proto.Statement ("EXPLAIN " ^ sql)) with
  | Srv.Proto.Explained plan ->
      check tbool "exception_union fired" true
        (contains_substring plan "exception_union:");
      check tbool "order_date IndexScan" true
        (contains_substring plan
           "IndexScan purchase using purchase_order_date_idx");
      check tbool "exceptions scanned" true
        (contains_substring plan "late_shipments")
  | p ->
      Alcotest.failf "expected a plan, got %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p });
  (match rpc_retry cl (Srv.Proto.Statement sql) with
  | Srv.Proto.Result_set { rows; _ } ->
      let base = Core.Softdb.query_baseline sdb sql in
      check tbool "served answer is the rewrite-free one" true
        (Exec.Executor.same_rows base
           { base with Exec.Executor.rows = List.map Tuple.of_array rows })
  | p ->
      Alcotest.failf "expected rows, got %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p });
  quit cl;
  Srv.Server.shutdown server

(* Mid-flight partition-SC overturn: session a's prepared plan prunes
   segment 2 on the strength of its mined domain SC; session b inserts
   a row outside the mined band, overturning the SC; a's next execute
   must flag the failed guard, revert to the backup plan, and see b's
   row.  The fallback is attributed to the overturned partition. *)
let test_partition_sc_overturn_guarded_fallback () =
  let sdb = small_purchase_sdb ~rows:1400 () in
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase PARTITION BY RANGE (id) BOUNDS (500, 1000)");
  let scs = Core.Softdb.mine_partition_domains sdb ~table:"purchase" in
  check tint "three domain SCs mined" 3 (List.length scs);
  Core.Softdb.runstats sdb;
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and bclient = connect server in
  (* outside segment 2's observed band [1000, 1400] but inside its
     open-ended routing bound: only the SC prunes it *)
  let sql = "SELECT id FROM purchase WHERE id > 1450" in
  check tbool "a prepares the pruned query" true
    (is_ok (rpc_retry a (Srv.Proto.Prepare { handle = "pruned"; sql })));
  (match rpc_retry a (Srv.Proto.Execute { handle = "pruned" }) with
  | Srv.Proto.Result_set { rows = []; _ } -> ()
  | _ -> Alcotest.fail "pruned query must start empty");
  let entry () =
    Option.get
      (Core.Plan_cache.find (Srv.Server.plan_cache server) ("sql:" ^ sql))
  in
  check tbool "fast plan depends on the domain SC" true
    (List.mem "purchase_p2_domain"
       (entry ()).Core.Plan_cache.report.Opt.Explain.guards);
  (* b lands a row out of band; segment 2's SC overturns, siblings keep *)
  (match
     rpc_retry bclient
       (Srv.Proto.Statement
          "INSERT INTO purchase VALUES (1500, 1, DATE '1999-01-05', DATE \
           '1999-01-15', 9.0, 1, 'north')")
   with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "out-of-band insert failed");
  let find name = Core.Sc_catalog.find (Core.Softdb.catalog sdb) name in
  check tbool "segment 2's SC overturned mid-flight" false
    (Core.Soft_constraint.is_usable (Option.get (find "purchase_p2_domain")));
  check tbool "sibling SCs untouched" true
    (Core.Soft_constraint.is_usable (Option.get (find "purchase_p0_domain"))
    && Core.Soft_constraint.is_usable (Option.get (find "purchase_p1_domain")));
  (* a executes the same handle again: guarded fallback sees the row *)
  (match rpc_retry a (Srv.Proto.Execute { handle = "pruned" }) with
  | Srv.Proto.Result_set { rows = [ [| Value.Int 1500 |] ]; _ } -> ()
  | p ->
      Alcotest.failf "expected b's row via the backup plan, got %a"
        Srv.Proto.pp_response { Srv.Proto.id = 0; payload = p });
  check tint "backup plan ran" 1 (entry ()).Core.Plan_cache.backup_runs;
  let m = Core.Softdb.metrics sdb in
  check tbool "fallback counted" true
    (Obs.Metrics.counter m "sc_guard_fallbacks" >= 1);
  check tint "fallback attributed to (purchase, 2)" 1
    (Obs.Metrics.counter m "exec.partition.fallbacks.purchase.2");
  quit a;
  quit bclient;
  Srv.Server.shutdown server

(* A dropped connection mid-transaction must roll back and free the
   write lock for everyone else. *)
let test_dropped_connection_releases_lock () =
  let sdb = small_purchase_sdb ~rows:200 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and bclient = connect server in
  check tbool "a begins" true (is_ok (rpc_retry a Srv.Proto.Begin_txn));
  (match
     rpc_retry a
       (Srv.Proto.Statement
          "INSERT INTO purchase VALUES (840001, 1, DATE '1999-01-05', DATE \
           '1999-01-15', 9.0, 1, 'north')")
   with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "a's insert failed");
  (* a vanishes without commit or rollback *)
  a.conn.Srv.Transport.close ();
  (* b's write goes through once the server tears a's session down *)
  (match
     rpc_retry bclient
       (Srv.Proto.Statement
          "INSERT INTO purchase VALUES (850001, 1, DATE '1999-01-05', DATE \
           '1999-01-15', 9.0, 1, 'north')")
   with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "b blocked behind a dead session");
  check tint "a's orphan txn rolled back, b's row in" 201
    (count_purchases bclient);
  quit bclient;
  Srv.Server.shutdown server

(* ---- parked requests ------------------------------------------------------ *)

let insert_sql id =
  Printf.sprintf
    "INSERT INTO purchase VALUES (%d, 1, DATE '1999-01-05', DATE \
     '1999-01-15', 9.0, 1, 'north')"
    id

(* The answer to request [id] among the next [n] responses of [cl]. *)
let answers cl n =
  let rs = List.init n (fun _ -> recv cl) in
  fun id ->
    match List.find_opt (fun r -> r.Srv.Proto.id = id) rs with
    | Some r -> r.Srv.Proto.payload
    | None -> Alcotest.failf "no answer to #%d" id

let expect_failure what code = function
  | Srv.Proto.Failed { code = c; _ } when c = code -> ()
  | p ->
      Alcotest.failf "%s: got %a" what Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p }

(* One session's pipelined statements run in admission order even when
   they wait for the lock: s's INSERT and then its SELECT both meet a
   read lock a holds on a latched virtual table; the SELECT must see the
   INSERT. *)
let test_pipelined_order_under_contention () =
  let sdb = small_purchase_sdb ~rows:200 () in
  let l = latch () in
  Database.register_virtual (Core.Softdb.db sdb) ~name:"sys.latch"
    ~schema:
      (Schema.make "sys.latch"
         [ Schema.column ~nullable:false "ok" Value.TBool ])
    (fun () ->
      latch_wait l;
      [ Tuple.make [ Value.Bool true ] ]);
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and s = connect server in
  let a_latch = send a (Srv.Proto.Statement "SELECT ok FROM sys.latch") in
  eventually "a holds the read lock" (fun () -> latch_waiters l = 1);
  let ins = send s (Srv.Proto.Statement (insert_sql 860001)) in
  let sel = send s (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase") in
  (* give both up to a second to queue up behind a's read *)
  let until = Unix.gettimeofday () +. 1.0 in
  while
    (counter sdb "srv.rwlock.parked_writes" < 1
    || counter sdb "srv.rwlock.parked_reads" < 1)
    && Unix.gettimeofday () < until
  do
    Unix.sleepf 0.002
  done;
  latch_open l;
  check tint "latched read answers" a_latch (recv a).Srv.Proto.id;
  let answer = answers s 2 in
  (match answer ins with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "insert failed");
  check tint "the SELECT sees the INSERT before it" 201
    (scalar_int (answer sel));
  check tbool "the INSERT parked" true
    (counter sdb "srv.rwlock.parked_writes" >= 1);
  check tbool "the SELECT parked" true
    (counter sdb "srv.rwlock.parked_reads" >= 1);
  quit a;
  quit s;
  Srv.Server.shutdown server

(* Two sessions and a parked INSERT from the second, behind the first's
   open transaction. *)
let with_parked_insert k =
  let sdb = small_purchase_sdb ~rows:200 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let a = connect server and b = connect server in
  check tbool "a begins" true (is_ok (rpc_retry a Srv.Proto.Begin_txn));
  let b_ins = send b (Srv.Proto.Statement (insert_sql 870001)) in
  eventually "b's insert parked" (fun () ->
      counter sdb "srv.rwlock.parked_writes" = 1);
  k sdb server a b b_ins

(* A client that disconnects while its request is parked leaves no trace
   in the lock: a later writer from another session goes through. *)
let test_parked_client_disconnects () =
  with_parked_insert @@ fun sdb server a b _ ->
  b.conn.Srv.Transport.close ();
  eventually "b's session torn down" (fun () ->
      counter sdb "srv.sessions_closed" = 1);
  check tint "b's parked wait ended" 1 (counter sdb "srv.rwlock.park_expired");
  check tbool "a commits" true (is_ok (rpc_retry a Srv.Proto.Commit_txn));
  let c = connect server in
  (match rpc_retry c (Srv.Proto.Statement (insert_sql 870002)) with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "c blocked behind a dead session's request");
  check tint "b's insert never ran" 201 (count_purchases c);
  quit a;
  quit c;
  Srv.Server.shutdown server

(* Cancelling a parked request answers it at once, while the lock is
   still held; the next session in line gets the lock on release. *)
let test_cancel_parked_request () =
  with_parked_insert @@ fun sdb server a b b_ins ->
  let c = connect server in
  let c_ins = send c (Srv.Proto.Statement (insert_sql 870002)) in
  eventually "c's insert parked" (fun () ->
      counter sdb "srv.rwlock.parked_writes" = 2);
  let cancel = send b (Srv.Proto.Cancel { target = b_ins }) in
  let answer = answers b 2 in
  check tbool "cancel acked" true (is_ok (answer cancel));
  expect_failure "parked insert" Srv.Proto.Cancelled (answer b_ins);
  check tbool "a commits" true (is_ok (rpc_retry a Srv.Proto.Commit_txn));
  let r = recv c in
  check tint "c's insert answers" c_ins r.Srv.Proto.id;
  (match r.Srv.Proto.payload with
  | Srv.Proto.Affected 1 -> ()
  | _ -> Alcotest.fail "c's insert failed");
  check tint "only c's row" 201 (count_purchases c);
  quit a;
  quit b;
  quit c;
  Srv.Server.shutdown server

(* Shutdown answers a parked request and returns, though the lock it
   waits for is never released. *)
let test_shutdown_with_parked_request () =
  with_parked_insert @@ fun _ server a b b_ins ->
  let stopped = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Srv.Server.shutdown server;
        Atomic.set stopped true)
      ()
  in
  let r = recv b in
  check tint "the parked insert answers" b_ins r.Srv.Proto.id;
  expect_failure "parked insert" Srv.Proto.Shutting_down r.Srv.Proto.payload;
  eventually ~timeout_s:5.0 "shutdown returns" (fun () -> Atomic.get stopped);
  Thread.join th;
  a.conn.Srv.Transport.close ();
  b.conn.Srv.Transport.close ()

(* Two servers in one process, each over its own database: a session on
   each holds an open transaction at the same time, and both commit. *)
let test_two_servers_one_process () =
  let servers =
    List.map
      (fun rows ->
        let server =
          Srv.Server.create ~workers:2 (small_purchase_sdb ~rows ())
        in
        (server, connect server, rows))
      [ 200; 100 ]
  in
  let each f = List.iter f servers in
  each (fun (_, cl, rows) ->
      check tbool
        (Printf.sprintf "%d-row server begins" rows)
        true
        (is_ok (rpc_retry cl Srv.Proto.Begin_txn)));
  each (fun (_, cl, rows) ->
      match rpc_retry cl (Srv.Proto.Statement (insert_sql (890000 + rows))) with
      | Srv.Proto.Affected 1 -> ()
      | _ -> Alcotest.failf "%d-row server: insert failed" rows);
  each (fun (_, cl, rows) ->
      check tbool
        (Printf.sprintf "%d-row server commits" rows)
        true
        (is_ok (rpc_retry cl Srv.Proto.Commit_txn)));
  each (fun (server, cl, rows) ->
      check tint "each database holds its own rows" (rows + 1)
        (count_purchases cl);
      quit cl;
      Srv.Server.shutdown server)

(* A burst of transactions from more sessions than workers: parked
   BEGINs hold no worker, so the holder's own statements still run and
   every transaction commits. *)
let test_begin_burst_commits () =
  let sdb = small_purchase_sdb ~rows:200 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let failures = Array.make 8 None in
  let run c () =
    try
      let cl = connect server in
      let expect what ok payload =
        match rpc_retry cl payload with
        | p when ok p -> ()
        | p ->
            failwith
              (Fmt.str "%s answered %a" what Srv.Proto.pp_response
                 { Srv.Proto.id = 0; payload = p })
      in
      expect "begin" is_ok Srv.Proto.Begin_txn;
      expect "insert"
        (( = ) (Srv.Proto.Affected 1))
        (Srv.Proto.Statement (insert_sql (880000 + c)));
      expect "commit" is_ok Srv.Proto.Commit_txn;
      quit cl
    with e -> failures.(c) <- Some (Printexc.to_string e)
  in
  List.iter Thread.join (List.init 8 (fun c -> Thread.create (run c) ()));
  Array.iteri
    (fun c f -> Option.iter (Alcotest.failf "session %d: %s" c) f)
    failures;
  let cl = connect server in
  check tint "every transaction committed" 208 (count_purchases cl);
  quit cl;
  Srv.Server.shutdown server

(* Two online builds beside a reader on two workers: a build that meets
   the lock between batches parks like any request, so a reader granted
   the lock never waits for a worker that a waiting build holds.  Both
   builds finish well inside their deadline. *)
let test_two_online_builds_beside_a_reader () =
  let sdb = small_purchase_sdb ~rows:20000 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let stop = Atomic.make false in
  let reader () =
    let cl = connect server in
    while not (Atomic.get stop) do
      ignore
        (rpc_retry cl
           (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase WHERE qty = 1"))
    done;
    quit cl
  in
  let answers = Array.make 2 Srv.Proto.Pong in
  let builder i () =
    let cl = connect server in
    ignore (rpc cl (Srv.Proto.Set { key = "deadline_ms"; value = "5000" }));
    answers.(i) <-
      rpc_retry cl
        (Srv.Proto.Statement
           (Printf.sprintf
              "CREATE INDEX b%d ON purchase (ship_date) ONLINE" i));
    quit cl
  in
  let r = Thread.create reader () in
  List.iter Thread.join (List.init 2 (fun i -> Thread.create (builder i) ()));
  Atomic.set stop true;
  Thread.join r;
  Array.iteri
    (fun i p ->
      match p with
      | Srv.Proto.Ok_msg m when contains_substring m "online (" -> ()
      | p ->
          Alcotest.failf "build %d answered %a" i Srv.Proto.pp_response
            { Srv.Proto.id = 0; payload = p })
    answers;
  check tint "both built" 2 (counter sdb "idx.online_builds");
  Srv.Server.shutdown server

(* ---- overload circuit breaker -------------------------------------------- *)

let test_breaker_state_machine () =
  let now = ref 0.0 in
  let m = Obs.Metrics.create () in
  let cfg =
    { Srv.Breaker.failure_threshold = 3; cooldown_s = 1.0; half_open_probes = 2 }
  in
  let b = Srv.Breaker.create ~config:cfg ~clock:(fun () -> !now) m in
  check tstr "starts closed" "closed" (Srv.Breaker.state_name b);
  Srv.Breaker.record_failure b;
  Srv.Breaker.record_failure b;
  check tstr "below threshold" "closed" (Srv.Breaker.state_name b);
  Srv.Breaker.record_success b;
  Srv.Breaker.record_failure b;
  Srv.Breaker.record_failure b;
  check tstr "a success resets the run" "closed" (Srv.Breaker.state_name b);
  Srv.Breaker.record_failure b;
  check tstr "threshold trips it" "open" (Srv.Breaker.state_name b);
  check tint "one open" 1 (Srv.Breaker.opens b);
  (match Srv.Breaker.admit b with
  | `Reject ms -> check tbool "honest cooldown hint" true (ms >= 1 && ms <= 1000)
  | `Proceed -> Alcotest.fail "open breaker admitted a request");
  check tint "fast reject counted" 1 (Srv.Breaker.fast_rejects b);
  check tint "fast reject metric" 1 (Obs.Metrics.counter m "srv.breaker.fast_rejects");
  (* cooldown elapses: the next caller becomes the probe *)
  now := 1.25;
  (match Srv.Breaker.admit b with
  | `Proceed -> ()
  | `Reject _ -> Alcotest.fail "probe refused after cooldown");
  check tstr "half open" "half_open" (Srv.Breaker.state_name b);
  (* one probe at a time: a second caller is turned away *)
  (match Srv.Breaker.admit b with
  | `Reject _ -> ()
  | `Proceed -> Alcotest.fail "two probes in flight");
  Srv.Breaker.record_success b;
  (match Srv.Breaker.admit b with
  | `Proceed -> ()
  | `Reject _ -> Alcotest.fail "second probe refused");
  Srv.Breaker.record_success b;
  check tstr "probe run closes it" "closed" (Srv.Breaker.state_name b);
  check tint "close metric" 1 (Obs.Metrics.counter m "srv.breaker.closed");
  check (Alcotest.option (Alcotest.float 0.01)) "state gauge back to closed"
    (Some 0.0)
    (Obs.Metrics.gauge m "srv.breaker.state")

let test_breaker_probe_failure_reopens () =
  let now = ref 0.0 in
  let m = Obs.Metrics.create () in
  let cfg =
    { Srv.Breaker.failure_threshold = 1; cooldown_s = 1.0; half_open_probes = 2 }
  in
  let b = Srv.Breaker.create ~config:cfg ~clock:(fun () -> !now) m in
  Srv.Breaker.record_failure b;
  check tstr "tripped" "open" (Srv.Breaker.state_name b);
  now := 1.5;
  (match Srv.Breaker.admit b with
  | `Proceed -> ()
  | `Reject _ -> Alcotest.fail "probe refused");
  Srv.Breaker.record_failure b;
  check tstr "failed probe reopens" "open" (Srv.Breaker.state_name b);
  check tint "two opens" 2 (Srv.Breaker.opens b);
  (* a wedged probe (cancelled, never reported) does not stick half-open:
     after a cooldown's worth of silence the next caller takes over *)
  now := 3.0;
  (match Srv.Breaker.admit b with
  | `Proceed -> ()
  | `Reject _ -> Alcotest.fail "probe refused");
  (match Srv.Breaker.admit b with
  | `Reject _ -> ()
  | `Proceed -> Alcotest.fail "second probe while first in flight");
  now := 4.5;
  (match Srv.Breaker.admit b with
  | `Proceed -> ()
  | `Reject _ -> Alcotest.fail "stale probe wedged the breaker");
  Srv.Breaker.record_success b;
  Srv.Breaker.record_success b;
  check tstr "closes again" "closed" (Srv.Breaker.state_name b)

(* End to end: pin the single worker, fill the one queue slot, and let a
   run of admission rejections open the breaker; while open, requests
   answer Rejected without touching the scheduler; once the load drains
   and the cooldown passes, a probe closes it again, and no queued job
   died of its deadline.  The latch makes the overload independent of
   timing; [make chaoscheck] runs this suite. *)
let test_breaker_opens_through_server () =
  let sdb = small_purchase_sdb ~rows:50 () in
  let l = latch () in
  Database.register_virtual (Core.Softdb.db sdb) ~name:"sys.latch"
    ~schema:
      (Schema.make "sys.latch"
         [ Schema.column ~nullable:false "ok" Value.TBool ])
    (fun () ->
      latch_wait l;
      [ Tuple.make [ Value.Bool true ] ]);
  let server =
    Srv.Server.create ~workers:1 ~queue_capacity:1
      ~breaker_config:
        {
          Srv.Breaker.failure_threshold = 3;
          cooldown_s = 0.2;
          half_open_probes = 1;
        }
      sdb
  in
  let breaker = Srv.Server.breaker server in
  let a = connect server and b = connect server and c = connect server in
  let a_latch = send a (Srv.Proto.Statement "SELECT ok FROM sys.latch") in
  eventually "worker pinned on the latch" (fun () -> latch_waiters l = 1);
  let b_queued =
    send b (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase")
  in
  eventually "queue holds b's query" (fun () ->
      Srv.Scheduler.queue_depth (Srv.Server.scheduler server) = 1);
  (* three straight admission rejections trip the breaker *)
  for i = 1 to 3 do
    match rpc c (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase") with
    | Srv.Proto.Rejected _ -> ()
    | p ->
        Alcotest.failf "overflow %d not rejected: %a" i Srv.Proto.pp_response
          { Srv.Proto.id = 0; payload = p }
  done;
  check tstr "breaker open after the run" "open" (Srv.Breaker.state_name breaker);
  (* open breaker: fast rejection at the door, scheduler untouched *)
  (match rpc c (Srv.Proto.Statement "SELECT COUNT(*) FROM purchase") with
  | Srv.Proto.Rejected { retry_after_ms } ->
      check tbool "retry hint within the cooldown" true
        (retry_after_ms >= 1 && retry_after_ms <= 200)
  | p ->
      Alcotest.failf "open breaker answered %a" Srv.Proto.pp_response
        { Srv.Proto.id = 0; payload = p });
  check tbool "rejected at the door, not the queue" true
    (Srv.Breaker.fast_rejects breaker >= 1);
  check tint "queue never saw the fast-rejected job" 1
    (Srv.Scheduler.queue_depth (Srv.Server.scheduler server));
  (* drain the load, wait out the cooldown, and recover via the probe *)
  latch_open l;
  let r = recv a in
  check tint "latched query answers" a_latch r.Srv.Proto.id;
  let r = recv b in
  check tint "queued query answers" b_queued r.Srv.Proto.id;
  Unix.sleepf 0.25;
  check tint "probe succeeds through the reopened door" 50
    (count_purchases c);
  check tstr "breaker closed again" "closed" (Srv.Breaker.state_name breaker);
  check tint "exactly one open" 1 (Srv.Breaker.opens breaker);
  check tint "no queued job died of its deadline" 0
    (Obs.Metrics.counter (Core.Softdb.metrics sdb) "srv.jobs_deadline_killed");
  quit a;
  quit b;
  quit c;
  Srv.Server.shutdown server

(* ---- malformed-frame handling -------------------------------------------- *)

(* A malformed frame must kill only the session that sent it: final
   Failed {Parse_error} frame, then disconnect; siblings keep working. *)
let test_malformed_frame_disconnects_one_session () =
  let sdb = small_purchase_sdb ~rows:50 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let healthy = connect server in
  List.iter
    (fun bad ->
      let cl = connect server in
      cl.conn.Srv.Transport.send bad;
      (match cl.conn.Srv.Transport.recv () with
      | None -> Alcotest.failf "no final error frame for %S" bad
      | Some line ->
          let r = Srv.Proto.response_of_line line in
          check tint "error frame carries id 0" 0 r.Srv.Proto.id;
          (match r.Srv.Proto.payload with
          | Srv.Proto.Failed { code = Srv.Proto.Parse_error; _ } -> ()
          | p ->
              Alcotest.failf "expected parse error for %S, got %a" bad
                Srv.Proto.pp_response
                { Srv.Proto.id = 0; payload = p }));
      (match cl.conn.Srv.Transport.recv () with
      | None -> ()
      | Some _ -> Alcotest.failf "session survived malformed frame %S" bad);
      cl.conn.Srv.Transport.close ())
    [
      "";
      "Z\t1";
      "Q\t";
      "Qx\tstmt\tSELECT 1";
      "Q1\tnosuchkind\tfoo";
      (* oversized id field: overflows int parsing *)
      "Q99999999999999999999999999\tstmt\tSELECT 1";
      "Q1\tstmt";
      "\x00\x01\xfe\xff binary junk";
    ];
  check tbool "protocol errors counted" true
    (Obs.Metrics.counter (Core.Softdb.metrics sdb) "srv.protocol_errors" >= 8);
  check tint "sibling session unharmed" 50 (count_purchases healthy);
  quit healthy;
  Srv.Server.shutdown server

(* Seeded random fuzz: arbitrary byte strings and truncated frames must
   never crash the server — each fuzzed session either gets normal
   responses (the line happened to parse) or the final-error-then-close
   treatment, and a healthy sibling stays functional throughout. *)
let test_malformed_frame_fuzz () =
  let sdb = small_purchase_sdb ~rows:50 () in
  let server = Srv.Server.create ~workers:2 sdb in
  let healthy = connect server in
  let st = Random.State.make [| 0x5eed |] in
  let sanitize s =
    String.map (function '\n' | '\r' -> 'x' | ch -> ch) s
  in
  let random_garbage () =
    sanitize
      (String.init
         (1 + Random.State.int st 64)
         (fun _ -> Char.chr (Random.State.int st 256)))
  in
  let truncated () =
    let line =
      Srv.Proto.request_to_line
        {
          Srv.Proto.id = 1 + Random.State.int st 1000;
          payload = Srv.Proto.Statement "SELECT COUNT(*) FROM purchase";
        }
    in
    String.sub line 0 (1 + Random.State.int st (String.length line - 1))
  in
  let oversized () =
    "Q" ^ string_of_int (1 + Random.State.int st 100) ^ "\tstmt\t"
    ^ String.make (1 lsl (10 + Random.State.int st 6)) 'x'
  in
  for i = 1 to 60 do
    let frame =
      match i mod 3 with
      | 0 -> random_garbage ()
      | 1 -> truncated ()
      | _ -> oversized ()
    in
    let cl = connect server in
    cl.conn.Srv.Transport.send frame;
    (match cl.conn.Srv.Transport.recv () with
    | None -> ()
    | Some line -> (
        let r = Srv.Proto.response_of_line line in
        match r.Srv.Proto.payload with
        | Srv.Proto.Failed { code = Srv.Proto.Parse_error; _ }
          when r.Srv.Proto.id = 0 -> (
            (* the protocol-level error frame: the session must close *)
            match cl.conn.Srv.Transport.recv () with
            | None -> ()
            | Some _ -> Alcotest.fail "session survived a parse error")
        | _ ->
            (* the bytes happened to parse as a frame: a normal answer
               (including a SQL-level failure on that id) is fine *)
            ()));
    cl.conn.Srv.Transport.close ()
  done;
  check tint "healthy session survives the fuzzing" 50
    (count_purchases healthy);
  quit healthy;
  Srv.Server.shutdown server

let () =
  Alcotest.run "srv"
    [
      ( "proto",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_round_trip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "bad frames rejected" `Quick
            test_bad_frames_rejected;
          QCheck_alcotest.to_alcotest prop_statement_round_trips;
        ] );
      ( "codec",
        [
          Alcotest.test_case "encodes byte-identical to the list codec" `Quick
            test_codec_encodes_byte_identical;
          Alcotest.test_case "decodes like the list codec" `Quick
            test_codec_decodes_like_reference;
          Alcotest.test_case "frame buffer holds the line" `Quick
            test_codec_frame_buffer;
          Alcotest.test_case "hex floats print as %h" `Quick
            test_codec_hex_floats;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes, owner reenters" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "waiting writer blocks new readers" `Quick
            test_rwlock_waiting_writer_blocks_new_readers;
          Alcotest.test_case "forfeit clears any depth" `Quick
            test_rwlock_forfeit;
          Alcotest.test_case "timer wakes an expired waiter" `Quick
            test_rwlock_deadline_timer;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "admission control" `Quick
            test_scheduler_admission_control;
          Alcotest.test_case "fans out to two domains" `Quick
            test_scheduler_uses_two_domains;
          Alcotest.test_case "one job per session at a time" `Quick
            test_scheduler_one_job_per_session;
          Alcotest.test_case "a woken job runs before its session's later \
                              job" `Quick
            test_scheduler_woken_job_keeps_session_order;
          Alcotest.test_case "deadline + cancellation at dequeue" `Quick
            test_scheduler_deadline_and_cancel;
          Alcotest.test_case "shutdown drains the queue" `Quick
            test_scheduler_shutdown_expires_queue;
        ] );
      ( "plan_cache_lru",
        [
          Alcotest.test_case "LRU eviction at capacity" `Quick
            test_plan_cache_lru_eviction;
          Alcotest.test_case "capacity must be positive" `Quick
            test_plan_cache_rejects_bad_capacity;
        ] );
      ( "metrics_mt",
        [
          Alcotest.test_case "parallel updates lose nothing" `Quick
            test_metrics_parallel_updates;
        ] );
      ( "server",
        [
          Alcotest.test_case "eight concurrent sessions" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "session isolation" `Quick test_session_isolation;
          Alcotest.test_case "deadline under lock contention" `Quick
            test_deadline_under_lock_contention;
          Alcotest.test_case "admission + cancel through the server" `Quick
            test_admission_and_cancel_through_server;
          Alcotest.test_case "SC overturned mid-flight falls back" `Quick
            test_sc_overturn_falls_back_across_sessions;
          Alcotest.test_case "dropped connection releases the lock" `Quick
            test_dropped_connection_releases_lock;
          Alcotest.test_case "month window serves the exception union"
            `Quick test_served_month_window_plan;
          Alcotest.test_case "pipelined statements keep order under the lock"
            `Quick test_pipelined_order_under_contention;
          Alcotest.test_case "parked client disconnects" `Quick
            test_parked_client_disconnects;
          Alcotest.test_case "cancel of a parked request" `Quick
            test_cancel_parked_request;
          Alcotest.test_case "shutdown answers a parked request" `Quick
            test_shutdown_with_parked_request;
          Alcotest.test_case "two servers in one process" `Quick
            test_two_servers_one_process;
          Alcotest.test_case "BEGIN burst on two workers commits" `Quick
            test_begin_burst_commits;
          Alcotest.test_case "two online builds beside a reader" `Quick
            test_two_online_builds_beside_a_reader;
        ] );
      ( "racecheck",
        [
          Alcotest.test_case "eight sessions over TCP under the lock witness"
            `Quick test_concurrent_sessions_tcp;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "partition SC overturn falls back" `Quick
            test_partition_sc_overturn_guarded_fallback;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
          Alcotest.test_case "opens through the server" `Quick
            test_breaker_opens_through_server;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "malformed frame disconnects one session" `Quick
            test_malformed_frame_disconnects_one_session;
          Alcotest.test_case "malformed frame fuzz" `Quick
            test_malformed_frame_fuzz;
          Alcotest.test_case "negative row count rejected" `Quick
            test_negative_row_count_rejected;
        ] );
    ]
