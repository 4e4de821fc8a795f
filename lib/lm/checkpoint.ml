module Tensor = Dpoaf_tensor.Tensor
module Lora = Dpoaf_tensor.Lora

(* Checkpoints open with a fixed 8-byte magic and a binary version word
   before the marshalled payload, so [load] can tell "not a checkpoint at
   all" from "a checkpoint written by another version of this code" and
   report either precisely — the serve daemon loads checkpoints at
   startup, where a bare [Failure "version mismatch"] is not actionable. *)
let magic = "DPOAFCKP"
let version = 3

exception Corrupt of { path : string; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt { path; reason } ->
        Some (Printf.sprintf "Checkpoint.Corrupt(%s: %s)" path reason)
    | _ -> None)

let corrupt path fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { path; reason })) fmt

type blob = {
  blob_version : int;
  dim : int;
  context : int;
  lora_rank : int;
  is_gru : bool;
  words : string list;
  embedding : float array;
  out_base : float array;
  out_a : float array;
  out_b : float array;
  bias : float array;
  gru : float array list;  (* 9 tensors in Model.gru_tensors order; [] for Bow *)
}

let data t = Array.init (Tensor.numel t) (Tensor.get t)

let save model path =
  let cfg = model.Model.config in
  let blob =
    {
      blob_version = version;
      dim = cfg.Model.dim;
      context = cfg.Model.context;
      lora_rank = cfg.Model.lora_rank;
      is_gru = cfg.Model.arch = Model.Gru;
      words = Vocab.export model.Model.vocab;
      embedding = data model.Model.embedding;
      out_base = data model.Model.out.Lora.base;
      out_a = data model.Model.out.Lora.a;
      out_b = data model.Model.out.Lora.b;
      bias = data model.Model.bias;
      gru =
        (match model.Model.gru with
        | None -> []
        | Some g ->
            List.map data
              [ g.Model.wz; g.Model.uz; g.Model.bz; g.Model.wr; g.Model.ur;
                g.Model.br; g.Model.wh; g.Model.uh; g.Model.bh ]);
    }
  in
  (* write beside [path], then rename over it: a crash mid-save leaves the
     previous checkpoint intact *)
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc magic;
        output_binary_int oc version;
        Marshal.to_channel oc blob [];
        close_out oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let restore ~path ~what dst src =
  if Tensor.numel dst <> Array.length src then
    corrupt path "tensor %s has %d elements, expected %d" what
      (Array.length src) (Tensor.numel dst);
  Array.iteri (fun i v -> Tensor.set dst i v) src

let read_blob path ic =
  let found_magic =
    try really_input_string ic (String.length magic)
    with End_of_file ->
      corrupt path "file is %d byte(s) long, shorter than the %d-byte magic"
        (in_channel_length ic) (String.length magic)
  in
  if found_magic <> magic then
    corrupt path "bad magic %S (expected %S): not a DPO-AF checkpoint file"
      found_magic magic;
  let found_version =
    try input_binary_int ic
    with End_of_file -> corrupt path "truncated before the version word"
  in
  if found_version <> version then
    corrupt path
      "version mismatch: file has checkpoint version %d, this build reads \
       version %d (re-save the model with the current build)"
      found_version version;
  try (Marshal.from_channel ic : blob)
  with End_of_file | Failure _ ->
    corrupt path "truncated or corrupt payload after a valid header"

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> corrupt path "cannot open: %s" msg
  in
  let blob = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_blob path ic) in
  if blob.blob_version <> version then
    corrupt path "payload declares version %d, header declared %d"
      blob.blob_version version;
  let restore dst src ~what = restore ~path ~what dst src in
  let vocab = Vocab.import blob.words in
  let config =
    {
      Model.dim = blob.dim;
      context = blob.context;
      lora_rank = blob.lora_rank;
      arch = (if blob.is_gru then Model.Gru else Model.Bow);
    }
  in
  let model = Model.create (Dpoaf_util.Rng.create 0) config vocab in
  restore model.Model.embedding blob.embedding ~what:"embedding";
  restore model.Model.out.Lora.base blob.out_base ~what:"out.base";
  restore model.Model.out.Lora.a blob.out_a ~what:"out.a";
  restore model.Model.out.Lora.b blob.out_b ~what:"out.b";
  restore model.Model.bias blob.bias ~what:"bias";
  (match model.Model.gru with
  | None ->
      if blob.gru <> [] then
        corrupt path "payload carries %d GRU tensors for a non-GRU config"
          (List.length blob.gru)
  | Some g ->
      if List.length blob.gru <> 9 then
        corrupt path "payload carries %d GRU tensors, expected 9"
          (List.length blob.gru);
      List.iteri
        (fun i (dst, what) -> restore dst (List.nth blob.gru i) ~what)
        [ (g.Model.wz, "gru.wz"); (g.Model.uz, "gru.uz"); (g.Model.bz, "gru.bz");
          (g.Model.wr, "gru.wr"); (g.Model.ur, "gru.ur"); (g.Model.br, "gru.br");
          (g.Model.wh, "gru.wh"); (g.Model.uh, "gru.uh"); (g.Model.bh, "gru.bh") ]);
  model
