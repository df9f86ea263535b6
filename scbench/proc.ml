(* The server under test as a child process: [softdb serve] started on a
   WAL with an ephemeral port, its port read from the banner it prints
   once it accepts connections, and killed and reaped before the
   benchmark exits. *)

type t = { pid : int; port : int; out : Unix.file_descr }

let live : t list ref = ref []

(* Read stdout lines from [fd] until one carries the serving banner;
   [None] on end of stream or when [timeout_s] passes first. *)
let await_banner fd ~timeout_s =
  let prefix = "softdb serving on 127.0.0.1:" in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec scan_lines () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        if String.starts_with ~prefix line then
          let rest =
            String.sub line (String.length prefix)
              (String.length line - String.length prefix)
          in
          Scanf.sscanf_opt rest "%d" Fun.id
        else scan_lines ()
  in
  let rec loop () =
    match scan_lines () with
    | Some port -> Some port
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ ->
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n = 0 then None
              else begin
                Buffer.add_subbytes buf chunk 0 n;
                loop ()
              end
  in
  loop ()

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  live := List.filter (fun s -> s.pid <> t.pid) !live

let kill_all () = List.iter kill !live

(* Start [exe serve --port 0 --wal wal]; stderr goes to [log]. *)
let spawn ~exe ~wal ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let args = [| exe; "serve"; "--port"; "0"; "--wal"; wal |] in
  let pid = Unix.create_process exe args Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let t = { pid; port = 0; out = r } in
  live := t :: !live;
  match await_banner r ~timeout_s:120.0 with
  | Some port ->
      let t = { t with port } in
      live := t :: List.filter (fun s -> s.pid <> pid) !live;
      t
  | None ->
      kill t;
      failwith (Printf.sprintf "server did not come up (see %s)" log)

(* Peak resident set of a process, in MiB, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())
