(* Output digests pinned per (workload, size, seed): seed 2014 is the
   default, seed 7 is held out for checking claims.  A run whose seed and
   size appear here must reproduce the digest exactly; other seeds are
   checked against the reference paths only.  Regenerate with
   [e2e.exe all --seed S] (and [--smoke]) and copy the "digest" lines. *)

let digests =
  [
    ("paper-grid", "full", 2014, "583704c53ac136dff9664415b14ad549");
    ("inject-sweep", "full", 2014, "2275ffdadc7909c9aaf57720e7f70c2e");
    ("exact-cells", "full", 2014, "13eaebf8c2de874dbb5f01a1cea435da");
    ("serve-burst", "full", 2014, "892f72c2568499a176ab8ee7c8244185");
    ("paper-grid", "full", 7, "8c57209ab0b42b494cfd19094f3f3284");
    ("inject-sweep", "full", 7, "63103307ec487d4c976afa7651524aa6");
    ("exact-cells", "full", 7, "aa906b11fc13ff5bbbd89d25d40c2512");
    ("serve-burst", "full", 7, "a3908db57b03ea80594d1ec77bc59483");
    ("paper-grid", "smoke", 2014, "acd2785ca713ef49a2b05f5e6aaf3dac");
    ("inject-sweep", "smoke", 2014, "b1268c5ce4d22c9437169d67a568ddb2");
    ("exact-cells", "smoke", 2014, "bfe10f7362e0cf300f8d05d900e3c485");
    ("serve-burst", "smoke", 2014, "5623e2a4ac397604dcb02c42e9d2e8a6");
    ("paper-grid", "smoke", 7, "bf10c29b2f812476bdb0cae19cf130c2");
    ("inject-sweep", "smoke", 7, "2b5b6f47ad145d7b5b7ed23b49e1fb77");
    ("exact-cells", "smoke", 7, "aeba3e1cbf18a84c0646f886851f65e4");
    ("serve-burst", "smoke", 7, "31d39f5648a7f8b198cfca452b5375ee");
  ]

let find ~workload ~size ~seed =
  List.find_map
    (fun (w, s, sd, d) -> if w = workload && s = size && sd = seed then Some d else None)
    digests
