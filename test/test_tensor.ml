open Dpoaf_tensor
module Rng = Dpoaf_util.Rng
module Autodiff = Dpoaf_oracle.Autodiff

let check_float = Alcotest.(check (float 1e-6))

(* ---------------- tensor basics ---------------- *)

let test_tensor_create () =
  let t = Tensor.zeros [| 2; 3 |] in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Alcotest.(check (array int)) "dims" [| 2; 3 |] (Tensor.dims t)

let test_tensor_of_array_mismatch () =
  Alcotest.(check bool) "mismatch rejected" true
    (try ignore (Tensor.of_array [| 2 |] [| 1.0; 2.0; 3.0 |]); false
     with Invalid_argument _ -> true)

let test_tensor_matrix () =
  let m = Tensor.matrix [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "get2" 3.0 (Tensor.get2 m 1 0);
  Tensor.set2 m 1 0 7.0;
  check_float "set2" 7.0 (Tensor.get2 m 1 0);
  Alcotest.(check bool) "ragged rejected" true
    (try ignore (Tensor.matrix [| [| 1.0 |]; [| 1.0; 2.0 |] |]); false
     with Invalid_argument _ -> true)

let test_tensor_map_ops () =
  let a = Tensor.vector [| 1.0; -2.0 |] in
  let b = Tensor.map abs_float a in
  check_float "map" 2.0 (Tensor.get b 1);
  let c = Tensor.map2 ( +. ) a b in
  check_float "map2" 0.0 (Tensor.get c 1);
  check_float "sum" 2.0 (Tensor.sum c);
  check_float "mean" 1.0 (Tensor.mean c);
  check_float "max_abs" 2.0 (Tensor.max_abs a)

let test_tensor_in_place () =
  let a = Tensor.vector [| 1.0; 2.0 |] in
  Tensor.add_in_place a (Tensor.vector [| 1.0; 1.0 |]);
  check_float "add_in_place" 3.0 (Tensor.get a 1);
  Tensor.scale_in_place a 2.0;
  check_float "scale_in_place" 6.0 (Tensor.get a 1);
  Tensor.fill a 0.5;
  check_float "fill" 0.5 (Tensor.get a 0)

(* ---------------- gradient checking ---------------- *)

(* Finite-difference check: for scalar function built from one leaf. *)
let gradient_check ?(tol = 1e-4) ~build leaf_value =
  let analytic =
    let tape = Autodiff.Tape.create () in
    let x = Autodiff.var tape (Tensor.copy leaf_value) in
    let out = build tape x in
    Autodiff.backward tape out;
    Tensor.copy (Autodiff.grad x)
  in
  let eps = 1e-5 in
  let numeric = Tensor.zeros (Tensor.dims leaf_value) in
  for i = 0 to Tensor.numel leaf_value - 1 do
    let eval shift =
      let perturbed = Tensor.copy leaf_value in
      Tensor.set perturbed i (Tensor.get perturbed i +. shift);
      let tape = Autodiff.Tape.create () in
      let x = Autodiff.var tape perturbed in
      Tensor.get (Autodiff.value (build tape x)) 0
    in
    Tensor.set numeric i ((eval eps -. eval (-.eps)) /. (2.0 *. eps))
  done;
  for i = 0 to Tensor.numel leaf_value - 1 do
    let a = Tensor.get analytic i and n = Tensor.get numeric i in
    if abs_float (a -. n) > tol *. (1.0 +. abs_float n) then
      Alcotest.failf "gradient mismatch at %d: analytic %.6f vs numeric %.6f" i a n
  done

let vec = Tensor.vector

let test_grad_sum () =
  gradient_check (vec [| 1.0; 2.0; 3.0 |]) ~build:(fun tape x -> Autodiff.sum tape x)

let test_grad_mean () =
  gradient_check (vec [| 1.0; -2.0 |]) ~build:(fun tape x -> Autodiff.mean tape x)

let test_grad_mul_sum () =
  gradient_check (vec [| 0.5; -1.5; 2.0 |]) ~build:(fun tape x ->
      Autodiff.sum tape (Autodiff.mul tape x x))

let test_grad_tanh () =
  gradient_check (vec [| 0.3; -0.7; 1.2 |]) ~build:(fun tape x ->
      Autodiff.sum tape (Autodiff.tanh_ tape x))

let test_grad_sigmoid () =
  gradient_check (vec [| 0.3; -0.7 |]) ~build:(fun tape x ->
      Autodiff.sum tape (Autodiff.sigmoid tape x))

let test_grad_relu () =
  gradient_check (vec [| 0.3; -0.7; 1.2 |]) ~build:(fun tape x ->
      Autodiff.sum tape (Autodiff.relu tape x))

let test_grad_softplus () =
  gradient_check (vec [| -30.0; -0.5; 0.0; 2.0; 30.0 |]) ~build:(fun tape x ->
      Autodiff.sum tape (Autodiff.softplus tape x))

let test_grad_exp_log () =
  gradient_check (vec [| 0.5; 1.5 |]) ~build:(fun tape x ->
      Autodiff.sum tape (Autodiff.log_ tape (Autodiff.exp_ tape x)))

let test_grad_log_softmax () =
  gradient_check (vec [| 0.1; 0.9; -0.4; 0.3 |]) ~build:(fun tape x ->
      Autodiff.pick tape (Autodiff.log_softmax tape x) 1)

let test_grad_log_softmax_weighted () =
  gradient_check (vec [| 0.1; 0.9; -0.4 |]) ~build:(fun tape x ->
      let ls = Autodiff.log_softmax tape x in
      Autodiff.add_list tape
        [ Autodiff.pick tape ls 0; Autodiff.scale tape 2.0 (Autodiff.pick tape ls 2) ])

let test_grad_matvec_wrt_matrix () =
  let x = vec [| 0.5; -1.0; 2.0 |] in
  gradient_check
    (Tensor.matrix [| [| 1.0; 0.0; 2.0 |]; [| -1.0; 3.0; 0.5 |] |])
    ~build:(fun tape m ->
      let xv = Autodiff.const tape x in
      Autodiff.sum tape (Autodiff.tanh_ tape (Autodiff.matvec tape m xv)))

let test_grad_matvec_wrt_vector () =
  let m = Tensor.matrix [| [| 1.0; 0.0; 2.0 |]; [| -1.0; 3.0; 0.5 |] |] in
  gradient_check (vec [| 0.5; -1.0; 2.0 |]) ~build:(fun tape x ->
      let mv = Autodiff.const tape m in
      Autodiff.sum tape (Autodiff.tanh_ tape (Autodiff.matvec tape mv x)))

let test_grad_rows_mean () =
  gradient_check
    (Tensor.matrix [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |])
    ~build:(fun tape m ->
      Autodiff.sum tape (Autodiff.tanh_ tape (Autodiff.rows_mean tape m [ 0; 2; 2 ])))

let test_grad_gather_matvec_m () =
  let x = vec [| 0.5; -1.0 |] in
  gradient_check
    (Tensor.matrix [| [| 1.0; 0.0 |]; [| -1.0; 3.0 |]; [| 0.2; 0.7 |] |])
    ~build:(fun tape m ->
      let xv = Autodiff.const tape x in
      Autodiff.sum tape
        (Autodiff.tanh_ tape (Autodiff.gather_matvec tape m xv [ 2; 0; 2 ])))

let test_grad_gather_matvec_x () =
  let m = Tensor.matrix [| [| 1.0; 0.0 |]; [| -1.0; 3.0 |]; [| 0.2; 0.7 |] |] in
  gradient_check (vec [| 0.5; -1.0 |]) ~build:(fun tape x ->
      let mv = Autodiff.const tape m in
      Autodiff.sum tape
        (Autodiff.log_softmax tape (Autodiff.gather_matvec tape mv x [ 0; 1; 2 ])))

let test_grad_gather () =
  gradient_check (vec [| 1.0; 2.0; 3.0 |]) ~build:(fun tape v ->
      Autodiff.sum tape (Autodiff.tanh_ tape (Autodiff.gather tape v [ 1; 1; 2 ])))

let test_grad_dot () =
  let b = vec [| 2.0; -1.0 |] in
  gradient_check (vec [| 0.5; 1.5 |]) ~build:(fun tape x ->
      Autodiff.dot tape x (Autodiff.const tape b))

let test_grad_composite_lm_like () =
  (* A miniature of the LM forward pass: logits = W (mean of embedding
     rows); loss = -log softmax picked at target. *)
  let w = Tensor.matrix [| [| 0.2; -0.1 |]; [| 0.4; 0.3 |]; [| -0.5; 0.1 |] |] in
  gradient_check
    (Tensor.matrix [| [| 1.0; 0.5 |]; [| -0.3; 0.8 |]; [| 0.2; -0.6 |] |])
    ~build:(fun tape emb ->
      let h = Autodiff.rows_mean tape emb [ 0; 1 ] in
      let logits = Autodiff.matvec tape (Autodiff.const tape w) h in
      Autodiff.neg tape (Autodiff.pick tape (Autodiff.log_softmax tape logits) 2))

let test_backward_requires_scalar () =
  let tape = Autodiff.Tape.create () in
  let x = Autodiff.var tape (vec [| 1.0; 2.0 |]) in
  Alcotest.(check bool) "non-scalar rejected" true
    (try Autodiff.backward tape x; false with Invalid_argument _ -> true)

let test_backward_resets_grads () =
  let tape = Autodiff.Tape.create () in
  let x = Autodiff.var tape (vec [| 1.0; 2.0 |]) in
  let out = Autodiff.sum tape x in
  Autodiff.backward tape out;
  Autodiff.backward tape out;
  check_float "grad not doubled" 1.0 (Tensor.get (Autodiff.grad x) 0)

(* ---------------- optimizers ---------------- *)

let quadratic_loss p =
  (* f(x) = sum (x - 3)^2, gradient 2(x-3) *)
  Tensor.map (fun x -> 2.0 *. (x -. 3.0)) p

let test_sgd_converges () =
  let p = Optim.param "x" (Tensor.vector [| 0.0; 10.0 |]) in
  let opt = Optim.Sgd.create ~lr:0.1 () in
  for _ = 1 to 200 do
    Optim.Sgd.step opt [ (p, quadratic_loss p.Optim.tensor) ]
  done;
  Alcotest.(check bool) "near 3" true
    (abs_float (Tensor.get p.Optim.tensor 0 -. 3.0) < 1e-3
     && abs_float (Tensor.get p.Optim.tensor 1 -. 3.0) < 1e-3)

let test_sgd_momentum_converges () =
  let p = Optim.param "x" (Tensor.vector [| 0.0 |]) in
  let opt = Optim.Sgd.create ~momentum:0.9 ~lr:0.01 () in
  for _ = 1 to 500 do
    Optim.Sgd.step opt [ (p, quadratic_loss p.Optim.tensor) ]
  done;
  Alcotest.(check bool) "near 3" true (abs_float (Tensor.get p.Optim.tensor 0 -. 3.0) < 1e-2)

let test_adam_converges () =
  let p = Optim.param "x" (Tensor.vector [| 0.0; 10.0 |]) in
  let opt = Optim.Adam.create ~lr:0.1 () in
  for _ = 1 to 500 do
    Optim.Adam.step opt [ (p, quadratic_loss p.Optim.tensor) ]
  done;
  Alcotest.(check bool) "near 3" true
    (abs_float (Tensor.get p.Optim.tensor 0 -. 3.0) < 1e-2
     && abs_float (Tensor.get p.Optim.tensor 1 -. 3.0) < 1e-2)

let test_optim_shape_mismatch () =
  let p = Optim.param "x" (Tensor.vector [| 0.0 |]) in
  let opt = Optim.Sgd.create ~lr:0.1 () in
  Alcotest.(check bool) "rejected" true
    (try Optim.Sgd.step opt [ (p, Tensor.vector [| 1.0; 2.0 |]) ]; false
     with Invalid_argument _ -> true)

let test_clip () =
  let g = Optim.clip_by_max_abs 1.0 (Tensor.vector [| 5.0; -3.0; 0.5 |]) in
  check_float "clip hi" 1.0 (Tensor.get g 0);
  check_float "clip lo" (-1.0) (Tensor.get g 1);
  check_float "clip pass" 0.5 (Tensor.get g 2)

(* ---------------- LoRA ---------------- *)

let test_lora_starts_at_base () =
  let rng = Rng.create 1 in
  let base = Tensor.matrix [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let l = Lora.create rng ~base ~rank:1 in
  Alcotest.(check bool) "effective = base at init" true
    (Tensor.approx_equal (Lora.effective l) base)

let test_lora_forward_matches_effective () =
  let rng = Rng.create 2 in
  let base = Tensor.gaussian rng [| 4; 3 |] ~stddev:1.0 in
  let l = Lora.create rng ~base ~rank:2 in
  (* perturb A so the adapter is non-trivial *)
  Tensor.set2 l.Lora.a 0 0 0.5;
  Tensor.set2 l.Lora.a 3 1 (-0.7);
  let x = Tensor.vector [| 0.3; -0.2; 0.9 |] in
  let tape = Autodiff.Tape.create () in
  let forward =
    Dpoaf_oracle.Tape_model.lora_forward tape
      ~base:(Autodiff.const tape l.Lora.base)
      ~a:(Autodiff.var tape l.Lora.a)
      ~b:(Autodiff.var tape l.Lora.b)
      (Autodiff.const tape x)
  in
  let eff = Lora.effective l in
  let expected =
    Tensor.vector
      (Array.init 4 (fun i ->
           let acc = ref 0.0 in
           for j = 0 to 2 do
             acc := !acc +. (Tensor.get2 eff i j *. Tensor.get x j)
           done;
           !acc))
  in
  Alcotest.(check bool) "forward = effective multiply" true
    (Tensor.approx_equal ~tol:1e-9 (Autodiff.value forward) expected)

let test_lora_params () =
  let rng = Rng.create 3 in
  let l = Lora.create rng ~base:(Tensor.zeros [| 2; 2 |]) ~rank:1 in
  let ps = Lora.params ~prefix:"out" l in
  Alcotest.(check (list string)) "names" [ "out.lora_a"; "out.lora_b" ]
    (List.map (fun p -> p.Optim.name) ps)

let test_lora_bad_args () =
  let rng = Rng.create 4 in
  Alcotest.(check bool) "vector base rejected" true
    (try ignore (Lora.create rng ~base:(Tensor.vector [| 1.0 |]) ~rank:1); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rank 0 rejected" true
    (try ignore (Lora.create rng ~base:(Tensor.zeros [| 2; 2 |]) ~rank:0); false
     with Invalid_argument _ -> true)

(* ---------------- the LoRA scoring head ---------------- *)

(* The head the LM scores every token with, as a composition of
   primitive ops. *)
let head tape ~base ~a ~b ~bias ~h ~allowed ~target_pos =
  let wx = Autodiff.gather_matvec tape base h allowed in
  let bh = Autodiff.matvec tape b h in
  let abx = Autodiff.gather_matvec tape a bh allowed in
  let bias = Autodiff.gather tape bias allowed in
  let logits = Autodiff.add tape (Autodiff.add tape wx abx) bias in
  Autodiff.pick tape (Autodiff.log_softmax tape logits) target_pos

let lora_case () =
  let base =
    Tensor.matrix
      [|
        [| 0.4; -0.2; 0.1 |];
        [| 0.3; 0.5; -0.6 |];
        [| -0.1; 0.2; 0.7 |];
        [| 0.8; -0.3; 0.2 |];
      |]
  in
  let a =
    Tensor.matrix
      [| [| 0.2; -0.4 |]; [| 0.1; 0.3 |]; [| -0.5; 0.2 |]; [| 0.6; 0.1 |] |]
  in
  let b = Tensor.matrix [| [| 0.3; 0.1; -0.2 |]; [| -0.4; 0.5; 0.2 |] |] in
  let bias = Tensor.vector [| 0.05; -0.1; 0.2; 0.0 |] in
  let h = Tensor.vector [| 0.6; -0.3; 0.8 |] in
  (* a duplicate in [allowed] exercises adjoint accumulation on shared rows *)
  (base, a, b, bias, h, [ 0; 2; 2; 3 ], 1)

(* Finite differences of the head with respect to one of its inputs;
   [pick_leaf] chooses it and makes the others constants. *)
let head_check pick_leaf =
  let base, a, b, bias, h, allowed, target_pos = lora_case () in
  let leaf, build =
    pick_leaf ~base ~a ~b ~bias ~h (fun tape ~base ~a ~b ~bias ~h ->
        head tape ~base ~a ~b ~bias ~h ~allowed ~target_pos)
  in
  gradient_check ~build leaf

let test_grad_head_base () =
  head_check (fun ~base ~a ~b ~bias ~h head ->
      ( base,
        fun tape x ->
          head tape ~base:x ~a:(Autodiff.const tape a)
            ~b:(Autodiff.const tape b) ~bias:(Autodiff.const tape bias)
            ~h:(Autodiff.const tape h) ))

let test_grad_head_a () =
  head_check (fun ~base ~a ~b ~bias ~h head ->
      ( a,
        fun tape x ->
          head tape ~base:(Autodiff.const tape base) ~a:x
            ~b:(Autodiff.const tape b) ~bias:(Autodiff.const tape bias)
            ~h:(Autodiff.const tape h) ))

let test_grad_head_b () =
  head_check (fun ~base ~a ~b ~bias ~h head ->
      ( b,
        fun tape x ->
          head tape ~base:(Autodiff.const tape base)
            ~a:(Autodiff.const tape a) ~b:x
            ~bias:(Autodiff.const tape bias) ~h:(Autodiff.const tape h) ))

let test_grad_head_bias () =
  head_check (fun ~base ~a ~b ~bias ~h head ->
      ( bias,
        fun tape x ->
          head tape ~base:(Autodiff.const tape base)
            ~a:(Autodiff.const tape a) ~b:(Autodiff.const tape b) ~bias:x
            ~h:(Autodiff.const tape h) ))

let test_grad_head_h () =
  head_check (fun ~base ~a ~b ~bias ~h head ->
      ( h,
        fun tape x ->
          head tape ~base:(Autodiff.const tape base)
            ~a:(Autodiff.const tape a) ~b:(Autodiff.const tape b)
            ~bias:(Autodiff.const tape bias) ~h:x ))

let () =
  Alcotest.run "tensor"
    [
      ( "tensor",
        [
          Alcotest.test_case "create" `Quick test_tensor_create;
          Alcotest.test_case "of_array mismatch" `Quick test_tensor_of_array_mismatch;
          Alcotest.test_case "matrix" `Quick test_tensor_matrix;
          Alcotest.test_case "map ops" `Quick test_tensor_map_ops;
          Alcotest.test_case "in place" `Quick test_tensor_in_place;
        ] );
      ( "gradients",
        [
          Alcotest.test_case "sum" `Quick test_grad_sum;
          Alcotest.test_case "mean" `Quick test_grad_mean;
          Alcotest.test_case "mul" `Quick test_grad_mul_sum;
          Alcotest.test_case "tanh" `Quick test_grad_tanh;
          Alcotest.test_case "sigmoid" `Quick test_grad_sigmoid;
          Alcotest.test_case "relu" `Quick test_grad_relu;
          Alcotest.test_case "exp/log" `Quick test_grad_exp_log;
          Alcotest.test_case "softplus" `Quick test_grad_softplus;
          Alcotest.test_case "log_softmax" `Quick test_grad_log_softmax;
          Alcotest.test_case "log_softmax weighted" `Quick test_grad_log_softmax_weighted;
          Alcotest.test_case "matvec d/dM" `Quick test_grad_matvec_wrt_matrix;
          Alcotest.test_case "matvec d/dx" `Quick test_grad_matvec_wrt_vector;
          Alcotest.test_case "rows_mean" `Quick test_grad_rows_mean;
          Alcotest.test_case "gather_matvec d/dM" `Quick test_grad_gather_matvec_m;
          Alcotest.test_case "gather_matvec d/dx" `Quick test_grad_gather_matvec_x;
          Alcotest.test_case "gather" `Quick test_grad_gather;
          Alcotest.test_case "dot" `Quick test_grad_dot;
          Alcotest.test_case "composite lm-like" `Quick test_grad_composite_lm_like;
          Alcotest.test_case "scalar required" `Quick test_backward_requires_scalar;
          Alcotest.test_case "grad reset" `Quick test_backward_resets_grads;
          Alcotest.test_case "lora head d/dbase" `Quick test_grad_head_base;
          Alcotest.test_case "lora head d/da" `Quick test_grad_head_a;
          Alcotest.test_case "lora head d/db" `Quick test_grad_head_b;
          Alcotest.test_case "lora head d/dbias" `Quick test_grad_head_bias;
          Alcotest.test_case "lora head d/dh" `Quick test_grad_head_h;
        ] );
      ( "optim",
        [
          Alcotest.test_case "sgd" `Quick test_sgd_converges;
          Alcotest.test_case "sgd momentum" `Quick test_sgd_momentum_converges;
          Alcotest.test_case "adam" `Quick test_adam_converges;
          Alcotest.test_case "shape mismatch" `Quick test_optim_shape_mismatch;
          Alcotest.test_case "clip" `Quick test_clip;
        ] );
      ( "lora",
        [
          Alcotest.test_case "starts at base" `Quick test_lora_starts_at_base;
          Alcotest.test_case "forward = effective" `Quick test_lora_forward_matches_effective;
          Alcotest.test_case "params" `Quick test_lora_params;
          Alcotest.test_case "bad args" `Quick test_lora_bad_args;
        ] );
    ]
