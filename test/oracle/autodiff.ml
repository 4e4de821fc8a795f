module Tensor = Dpoaf_tensor.Tensor

type node = {
  value : Tensor.t;
  grad : Tensor.t;  (* adjoint, same shape as value *)
  pull : unit -> unit;  (* propagate this node's adjoint to its parents *)
}

type t = node

(* A tape records nodes in creation order, which is a topological order:
   [backward] walks it in reverse. *)
module Tape = struct
  type t = { mutable nodes : node list }  (* newest first *)

  let create () = { nodes = [] }
end

(* [pull_of_grad] receives the node's own adjoint tensor and accumulates
   into the parents' adjoints. *)
let record tape value pull_of_grad =
  let grad = Tensor.zeros (Tensor.dims value) in
  let node = { value; grad; pull = (fun () -> pull_of_grad grad) } in
  tape.Tape.nodes <- node :: tape.Tape.nodes;
  node

let var tape value = record tape value (fun _ -> ())
let const = var

let value n = n.value
let grad n = n.grad

let n_ t = Tensor.numel t

let add tape a b =
  record tape
    (Tensor.map2 ( +. ) a.value b.value)
    (fun g ->
      Tensor.add_in_place a.grad g;
      Tensor.add_in_place b.grad g)

let sub tape a b =
  record tape
    (Tensor.map2 ( -. ) a.value b.value)
    (fun g ->
      Tensor.add_in_place a.grad g;
      for i = 0 to n_ g - 1 do
        Tensor.set b.grad i (Tensor.get b.grad i -. Tensor.get g i)
      done)

let mul tape a b =
  record tape
    (Tensor.map2 ( *. ) a.value b.value)
    (fun g ->
      for i = 0 to n_ g - 1 do
        Tensor.set a.grad i (Tensor.get a.grad i +. (Tensor.get g i *. Tensor.get b.value i));
        Tensor.set b.grad i (Tensor.get b.grad i +. (Tensor.get g i *. Tensor.get a.value i))
      done)

let scale tape c a =
  record tape
    (Tensor.map (fun x -> c *. x) a.value)
    (fun g ->
      for i = 0 to n_ g - 1 do
        Tensor.set a.grad i (Tensor.get a.grad i +. (c *. Tensor.get g i))
      done)

let neg tape a = scale tape (-1.0) a

let sum tape a =
  record tape
    (Tensor.scalar (Tensor.sum a.value))
    (fun g ->
      let gv = Tensor.get g 0 in
      for i = 0 to n_ a.value - 1 do
        Tensor.set a.grad i (Tensor.get a.grad i +. gv)
      done)

let mean tape a =
  let n = float_of_int (max 1 (n_ a.value)) in
  record tape
    (Tensor.scalar (Tensor.mean a.value))
    (fun g ->
      let gv = Tensor.get g 0 /. n in
      for i = 0 to n_ a.value - 1 do
        Tensor.set a.grad i (Tensor.get a.grad i +. gv)
      done)

let dot tape a b =
  if Tensor.numel a.value <> Tensor.numel b.value then
    invalid_arg "Autodiff.dot: size mismatch";
  let v = ref 0.0 in
  for i = 0 to n_ a.value - 1 do
    v := !v +. (Tensor.get a.value i *. Tensor.get b.value i)
  done;
  record tape (Tensor.scalar !v) (fun g ->
      let gv = Tensor.get g 0 in
      for i = 0 to n_ a.value - 1 do
        Tensor.set a.grad i (Tensor.get a.grad i +. (gv *. Tensor.get b.value i));
        Tensor.set b.grad i (Tensor.get b.grad i +. (gv *. Tensor.get a.value i))
      done)

let matvec tape m x =
  let rows, cols =
    match Tensor.dims m.value with
    | [| r; c |] -> (r, c)
    | _ -> invalid_arg "Autodiff.matvec: first argument must be a matrix"
  in
  if Tensor.numel x.value <> cols then invalid_arg "Autodiff.matvec: size mismatch";
  let out = Array.make rows 0.0 in
  for i = 0 to rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to cols - 1 do
      acc := !acc +. (Tensor.get m.value ((i * cols) + j) *. Tensor.get x.value j)
    done;
    out.(i) <- !acc
  done;
  record tape (Tensor.vector out) (fun g ->
      for i = 0 to rows - 1 do
        let gi = Tensor.get g i in
        if gi <> 0.0 then
          for j = 0 to cols - 1 do
            let idx = (i * cols) + j in
            Tensor.set m.grad idx (Tensor.get m.grad idx +. (gi *. Tensor.get x.value j));
            Tensor.set x.grad j (Tensor.get x.grad j +. (gi *. Tensor.get m.value idx))
          done
      done)

let rows_mean tape m rows =
  let nrows, cols =
    match Tensor.dims m.value with
    | [| r; c |] -> (r, c)
    | _ -> invalid_arg "Autodiff.rows_mean: argument must be a matrix"
  in
  List.iter
    (fun r ->
      if r < 0 || r >= nrows then invalid_arg "Autodiff.rows_mean: row out of range")
    rows;
  let k = float_of_int (max 1 (List.length rows)) in
  let out = Array.make cols 0.0 in
  List.iter
    (fun r ->
      for j = 0 to cols - 1 do
        out.(j) <- out.(j) +. (Tensor.get m.value ((r * cols) + j) /. k)
      done)
    rows;
  record tape (Tensor.vector out) (fun g ->
      List.iter
        (fun r ->
          for j = 0 to cols - 1 do
            let idx = (r * cols) + j in
            Tensor.set m.grad idx (Tensor.get m.grad idx +. (Tensor.get g j /. k))
          done)
        rows)

let gather_matvec tape m x rows =
  let nrows, cols =
    match Tensor.dims m.value with
    | [| r; c |] -> (r, c)
    | _ -> invalid_arg "Autodiff.gather_matvec: first argument must be a matrix"
  in
  if Tensor.numel x.value <> cols then
    invalid_arg "Autodiff.gather_matvec: size mismatch";
  let rows_arr = Array.of_list rows in
  Array.iter
    (fun r ->
      if r < 0 || r >= nrows then
        invalid_arg "Autodiff.gather_matvec: row out of range")
    rows_arr;
  let out =
    Array.map
      (fun r ->
        let acc = ref 0.0 in
        for j = 0 to cols - 1 do
          acc := !acc +. (Tensor.get m.value ((r * cols) + j) *. Tensor.get x.value j)
        done;
        !acc)
      rows_arr
  in
  record tape (Tensor.vector out) (fun g ->
      Array.iteri
        (fun k r ->
          let gk = Tensor.get g k in
          if gk <> 0.0 then
            for j = 0 to cols - 1 do
              let idx = (r * cols) + j in
              Tensor.set m.grad idx (Tensor.get m.grad idx +. (gk *. Tensor.get x.value j));
              Tensor.set x.grad j (Tensor.get x.grad j +. (gk *. Tensor.get m.value idx))
            done)
        rows_arr)

let gather tape v rows =
  let n = n_ v.value in
  let rows_arr = Array.of_list rows in
  Array.iter
    (fun r -> if r < 0 || r >= n then invalid_arg "Autodiff.gather: index out of range")
    rows_arr;
  record tape
    (Tensor.vector (Array.map (fun r -> Tensor.get v.value r) rows_arr))
    (fun g ->
      Array.iteri
        (fun k r -> Tensor.set v.grad r (Tensor.get v.grad r +. Tensor.get g k))
        rows_arr)

let unary tape f df a =
  let value = Tensor.map f a.value in
  record tape value (fun g ->
      for i = 0 to n_ g - 1 do
        Tensor.set a.grad i
          (Tensor.get a.grad i +. (Tensor.get g i *. df (Tensor.get a.value i) (Tensor.get value i)))
      done)

let tanh_ tape a = unary tape tanh (fun _ y -> 1.0 -. (y *. y)) a
let relu tape a = unary tape (fun x -> Float.max 0.0 x) (fun x _ -> if x > 0.0 then 1.0 else 0.0) a
let sigmoid tape a =
  unary tape (fun x -> 1.0 /. (1.0 +. exp (-.x))) (fun _ y -> y *. (1.0 -. y)) a
let log_ tape a = unary tape log (fun x _ -> 1.0 /. x) a
let exp_ tape a = unary tape exp (fun _ y -> y) a

let softplus tape a =
  unary tape
    (fun x -> Float.max x 0.0 +. log1p (exp (-.abs_float x)))
    (fun x _ -> 1.0 /. (1.0 +. exp (-.x)))
    a

let log_softmax tape a =
  let n = n_ a.value in
  if n = 0 then invalid_arg "Autodiff.log_softmax: empty vector";
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    m := Float.max !m (Tensor.get a.value i)
  done;
  let z = ref 0.0 in
  for i = 0 to n - 1 do
    z := !z +. exp (Tensor.get a.value i -. !m)
  done;
  let log_z = !m +. log !z in
  let value = Tensor.map (fun x -> x -. log_z) a.value in
  record tape value (fun g ->
      let g_sum = Tensor.sum g in
      for i = 0 to n - 1 do
        let soft = exp (Tensor.get value i) in
        Tensor.set a.grad i (Tensor.get a.grad i +. Tensor.get g i -. (g_sum *. soft))
      done)

let pick tape a idx =
  if idx < 0 || idx >= n_ a.value then invalid_arg "Autodiff.pick: index out of range";
  record tape
    (Tensor.scalar (Tensor.get a.value idx))
    (fun g -> Tensor.set a.grad idx (Tensor.get a.grad idx +. Tensor.get g 0))

let add_list tape = function
  | [] -> var tape (Tensor.scalar 0.0)
  | xs ->
      List.iter
        (fun x ->
          if Tensor.numel x.value <> 1 then
            invalid_arg "Autodiff.add_list: non-scalar term")
        xs;
      let total = List.fold_left (fun acc x -> acc +. Tensor.get x.value 0) 0.0 xs in
      record tape (Tensor.scalar total) (fun g ->
          let gv = Tensor.get g 0 in
          List.iter
            (fun x -> Tensor.set x.grad 0 (Tensor.get x.grad 0 +. gv))
            xs)

let backward tape out =
  if Tensor.numel out.value <> 1 then
    invalid_arg "Autodiff.backward: output must be a scalar";
  List.iter (fun n -> Tensor.fill n.grad 0.0) tape.Tape.nodes;
  Tensor.set out.grad 0 1.0;
  List.iter (fun n -> n.pull ()) tape.Tape.nodes
