"""Training-data ops: text analysis, dedup family, ANN, multimodal."""
import numpy as np
import pyarrow as pa
import pytest

from deepwebharvester_ray.functions import ann, dedup, multimodal, textops

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs_ds(texts):
    import ray

    return ray.data.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )


# ── textops ──────────────────────────────────────────────────────────────────


def test_token_count():
    t = pa.table({"text": ["a bb  ccc", "", "one-two 3"]})
    out = textops.token_count_batch(t)
    assert out.column("n_tokens").to_pylist() == [3, 0, 2]
    # BPE-ish: one|-|two|3
    assert out.column("n_bpe_tokens").to_pylist() == [3, 0, 4]


def test_quality():
    t = pa.table({"text": ["ab cd!", ""]})
    out = textops.quality_batch(t)
    assert out.column("n_chars").to_pylist() == [6, 0]
    assert out.column("mean_token_len").to_pylist()[0] == pytest.approx(5 / 2)
    assert out.column("alnum_ratio").to_pylist()[0] == pytest.approx(4 / 6)


def test_lang_id():
    t = pa.table({"text": [
        "the cat and the dog of a house",
        "der hund und die katze ist nicht da",
        "xyzzy qwerty",
    ]})
    out = textops.lang_id_batch(t)
    assert out.column("pred_lang").to_pylist() == ["en", "de", "und"]


def test_fingerprint_deterministic():
    t = pa.table({"text": ["one two three four five six seven"] * 2 + ["different words here"]})
    out = textops.fingerprint_batch(t)
    fps = out.column("fingerprint").to_pylist()
    assert fps[0] == fps[1] != fps[2]


# ── dedup ────────────────────────────────────────────────────────────────────


def test_exact_dedup():
    texts = ["same text", "unique one", "same text", "unique two", "same text"]
    out = dedup.exact_dedup(_docs_ds(texts)).take_all()
    ids = sorted(r["doc_id"] for r in out)
    assert ids == [0, 1, 3]


def test_minhash_finds_planted_neardups():
    base = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
            "kilo lima mike november oscar papa quebec romeo sierra tango")
    texts = [f"doc {i} " + " ".join(f"w{i}x{j}" for j in range(30)) for i in range(20)]
    texts.append(base)                       # 20
    texts.append(base + " uniform victor")   # 21: near-dup of 20
    out = dedup.minhash_lsh_pairs(_docs_ds(texts), threshold=0.5).take_all()
    pairs = {(r["id_a"], r["id_b"]) for r in out}
    assert (20, 21) in pairs
    for a, b in pairs:
        assert not (a < 20 and b < 20)  # unrelated docs must not pair


def test_jaccard_exact_pairs():
    texts = ["a b c d e", "a b c d f", "x y z w v"]
    out = dedup.jaccard_pairs_exact(_docs_ds(texts), threshold=0.6).take_all()
    pairs = {(r["id_a"], r["id_b"]): r["jaccard"] for r in out}
    assert set(pairs) == {(0, 1)}
    assert pairs[(0, 1)] == pytest.approx(4 / 6)


def test_cosine_pairs_exact_vs_bruteforce():
    """Probe–index prefix-filtered weighted-cosine join == the O(n²)
    integer reference on a random multi-block corpus with planted
    near-dups — validates the prefix-filter completeness bound and the
    integer threshold test end to end."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(120)]
    docs = []
    for _ in range(80):
        k = int(rng.integers(5, 30))
        docs.append(" ".join(rng.choice(vocab, size=k, replace=False)))
    docs[50] = docs[10] + " extraword"      # near-dup
    docs[51] = docs[10]                     # exact dup
    parts = docs[20].split()
    docs[52] = " ".join(parts[:-2] + parts[:3])  # overlap variant

    out = dedup.cosine_pairs_exact(
        _docs_ds(docs), tau=(4, 5), n_docs=len(docs),
        shuffle_partitions=4,
    ).take_all()
    got = sorted((r["id_a"], r["id_b"], r["num"], r["norm_a"], r["norm_b"])
                 for r in out)

    n = len(docs)
    log_n = n.bit_length() - 1
    from collections import Counter

    sets = [set(dedup.token_set(t)) for t in docs]
    df = Counter(t for s in sets for t in s)

    def wvec(s):
        v = {t: log_n - (df[t].bit_length() - 1) for t in s}
        return {t: w for t, w in v.items() if w > 0}

    vecs = [wvec(s) for s in sets]
    exp = []
    for a in range(n):
        for b in range(a + 1, n):
            num = sum(w * vecs[b][t]
                      for t, w in vecs[a].items() if t in vecs[b])
            na = sum(w * w for w in vecs[a].values())
            nb = sum(w * w for w in vecs[b].values())
            if num > 0 and num * num * 25 >= 16 * na * nb:
                exp.append((a, b, num, na, nb))
    assert got == sorted(exp)
    assert {(p[0], p[1]) for p in got} >= {(10, 50), (10, 51), (50, 51)}


def test_simhash_pairs():
    words = [f"tok{i}" for i in range(60)]
    a = " ".join(words)
    b = " ".join(words[:-1] + ["changed"])   # 1 token differs → small hamming
    texts = [a, b, "totally different content entirely unrelated stuff"]
    out = dedup.simhash_pairs(_docs_ds(texts), max_hamming=8).take_all()
    pairs = {(r["id_a"], r["id_b"]) for r in out}
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_embedding_neardup():
    import ray

    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    vecs = [base, base + rng.standard_normal(16) * 0.01, rng.standard_normal(16)]
    ds = ray.data.from_arrow(
        pa.table({
            "vec_id": [0, 1, 2],
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        })
    )
    out = dedup.embedding_neardup_pairs(ds, threshold=0.99).take_all()
    assert {(r["id_a"], r["id_b"]) for r in out} == {(0, 1)}


# ── ANN ──────────────────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def emb_ds():
    import ray

    return ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_brute_topk(emb_ds):
    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)
    out = ann.brute_topk(emb_ds, q, k=5)
    assert out.num_rows == 5
    ranks = out.column("rank").to_pylist()
    assert ranks == [1, 2, 3, 4, 5]
    assert out.column("id").to_pylist()[0] == rows[0]["vec_id"]  # self is NN
    scores = out.column("score").to_pylist()
    assert scores == sorted(scores, reverse=True)
    assert scores[0] == pytest.approx(1.0)


def test_lsh_topk_recall(emb_ds):
    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)
    exact = set(ann.brute_topk(emb_ds, q, k=10).column("id").to_pylist())
    approx = set(
        ann.lsh_topk(emb_ds, q, k=10, n_bits=6, n_probe=8).column("id").to_pylist()
    )
    # multi-probe over most buckets → decent recall on 500 vectors
    assert len(exact & approx) >= 5


def test_ivf_topk_recall(emb_ds):
    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)
    exact = set(ann.brute_topk(emb_ds, q, k=10).column("id").to_pylist())
    out = ann.ivf_topk(emb_ds, q, k=10, n_cells=8, n_probe=4)
    approx = set(out.column("id").to_pylist())
    assert len(exact & approx) >= 5      # probes half the cells → good recall
    assert rows[0]["vec_id"] in approx   # self always lands in the top cell
    # deterministic: same seed/sample → identical result
    again = ann.ivf_topk(emb_ds, q, k=10, n_cells=8, n_probe=4)
    assert out.equals(again)


def test_ivf_index_physical_pruning(emb_ds, tmp_path):
    """index_dir mode: hive-partitioned build, probed-cells-only read,
    identical result to the single-shot scan."""
    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)
    scan = ann.ivf_topk(emb_ds, q, k=10, n_cells=8, n_probe=4)
    idx = str(tmp_path / "ivf_index")
    pruned = ann.ivf_topk(emb_ds, q, k=10, n_cells=8, n_probe=4,
                          index_dir=idx)
    assert pruned.equals(scan)
    # the build materialized one hive partition per non-empty cell
    cells = sorted(p.name for p in (tmp_path / "ivf_index").glob("cell=*"))
    assert len(cells) >= 2
    assert (tmp_path / "ivf_index" / "centroids.npz").exists()
    # pruning: only probed cells' files are selected for the read
    import os

    sel = ann._cell_paths(idx, [0, 1])
    parents = {os.path.basename(os.path.dirname(p)) for p in sel}
    assert parents <= {"cell=0", "cell=1"}
    assert len(parents) < len(cells) or len(cells) <= 2


def test_lsh_index_physical_pruning(emb_ds, tmp_path):
    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)
    scan = ann.lsh_topk(emb_ds, q, k=10, n_bits=6, n_probe=8)
    idx = str(tmp_path / "lsh_index")
    pruned = ann.lsh_topk(emb_ds, q, k=10, n_bits=6, n_probe=8,
                          index_dir=idx)
    # same neighbors; scores may differ in the last ulp (BLAS picks a
    # different matvec kernel for the differently-shaped masked matrix)
    assert pruned.column("id").to_pylist() == scan.column("id").to_pylist()
    assert np.allclose(pruned.column("score").to_numpy(),
                       scan.column("score").to_numpy(), rtol=1e-12)
    assert (tmp_path / "lsh_index" / "planes.npz").exists()


def test_ann_persistent_build_then_probe(emb_ds, tmp_path):
    """Build-once / probe-many contract: a PREBUILT index directory is
    probed by a later caller with only the path (no dataset, no
    re-training), repeated probes are deterministic and identical to
    the build-and-query call, and a probe reads ONLY probed-cell files
    — proven by corrupting every non-probed cell's parquet after the
    build: the probe must still succeed."""
    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)

    # IVF
    idx = str(tmp_path / "ivf")
    meta = ann.ivf_build_index(emb_ds, idx, n_cells=8)
    assert meta["kind"] == "ivf" and (tmp_path / "ivf" / "manifest.json").exists()
    combined = ann.ivf_topk(emb_ds, q, k=10, n_cells=8, n_probe=4,
                            index_dir=str(tmp_path / "ivf2"))
    p1 = ann.ivf_probe_index(idx, q, k=10, n_probe=4)
    p2 = ann.ivf_probe_index(idx, q, k=10, n_probe=4)
    assert p1.equals(p2) and p1.equals(combined)

    # which cells does this query probe?
    cents = np.load(str(tmp_path / "ivf" / "centroids.npz"))["cents"]
    qn = np.atleast_2d(q) / np.linalg.norm(q)
    probed = set(np.argsort(-(qn @ cents.T), axis=1)[0, :4].tolist())
    # corrupt every NON-probed cell's files: a full-scan probe would crash
    n_corrupted = 0
    for cdir in (tmp_path / "ivf").glob("cell=*"):
        if int(cdir.name.split("=")[1]) not in probed:
            for f in cdir.glob("*.parquet"):
                f.write_bytes(b"not parquet at all")
                n_corrupted += 1
    assert n_corrupted > 0  # the corpus spans more cells than one probe
    p3 = ann.ivf_probe_index(idx, q, k=10, n_probe=4)
    assert p3.equals(p1)

    # LSH: same contract
    lidx = str(tmp_path / "lsh")
    lmeta = ann.lsh_build_index(emb_ds, lidx, n_bits=6)
    assert lmeta["kind"] == "lsh"
    l1 = ann.lsh_probe_index(lidx, q, k=10, n_probe=8)
    l2 = ann.lsh_probe_index(lidx, q, k=10, n_probe=8)
    assert l1.equals(l2) and l1.num_rows > 0


# ── multimodal ───────────────────────────────────────────────────────────────


def test_binary_metadata():
    t = pa.table({
        "id": [1, 2, 3],
        "payload": pa.array([b"\x89PNG\r\n", b"\xff\xd8\xff\xe0xx", b"plain"], pa.binary()),
    })
    out = multimodal.binary_metadata_batch(t)
    assert out.column("sniffed_type").to_pylist() == [
        "image/png", "image/jpeg", "application/octet-stream"
    ]
    assert out.column("n_bytes").to_pylist() == [6, 6, 5]


def test_decode_fake_features():
    import ray

    t = pa.table({"id": [1, 2], "payload": pa.array([b"\x00" * 64, bytes(range(64))], pa.binary())})
    out = multimodal.decode_features(
        ray.data.from_arrow(t), fake=True, batch_size=8
    ).take_all()
    f0 = out[0]["features"]
    assert len(f0) == multimodal.N_FEATURES
    assert f0[0] == pytest.approx(1.0)  # all zero bytes → first bin
    assert sum(out[1]["features"]) == pytest.approx(1.0)


def test_decode_stub_raises():
    stage = multimodal.DecodeStage()
    with pytest.raises(NotImplementedError):
        stage(pa.table({"payload": pa.array([b"x"], pa.binary())}))


def test_png_codec_roundtrip_all_filters():
    """Hand-built rasters through the REAL pure-stdlib PNG codec: every
    filter type (None/Sub/Up/Average/Paeth) and every supported color
    type (gray / gray+alpha / RGB / RGBA) round-trips bit-exact, and
    the container parses under image_dims."""
    rng = np.random.RandomState(3)
    for ch in (1, 2, 3, 4):
        img = rng.randint(0, 256, (2, 2, ch), dtype=np.uint8)
        for filt in (0, 1, 2, 3, 4):
            blob = multimodal.png_encode(img, filters=filt)
            assert np.array_equal(multimodal.png_decode(blob), img), (ch, filt)
        # per-row filter sweep on a taller image
        tall = rng.randint(0, 256, (7, 5, ch), dtype=np.uint8)
        blob = multimodal.png_encode(tall, filters=lambda y: y % 5)
        assert np.array_equal(multimodal.png_decode(blob), tall)
        assert multimodal.image_dims(blob) == ("png", 5, 7)
    # 2-D input → 1-channel output
    g = np.array([[0, 255], [7, 130]], np.uint8)
    assert np.array_equal(
        multimodal.png_decode(multimodal.png_encode(g))[:, :, 0], g)
    # known-value unfilter: Sub filter of constant-delta row
    img = np.array([[[10], [20], [30]]], np.uint8)
    blob = multimodal.png_encode(img, filters=1)
    assert np.array_equal(multimodal.png_decode(blob), img)
    with pytest.raises(ValueError):
        multimodal.png_decode(b"not a png")


def test_png_luma_integer_rule():
    img = np.array([[[255, 0, 0, 9], [0, 0, 255, 9]]], np.uint8)
    assert multimodal.png_luma(img).tolist() == [[76, 29]]  # 299/1000, 114/1000
    gray = np.array([[5, 6]], np.uint8)
    assert multimodal.png_luma(gray).tolist() == [[5, 6]]


def test_wav_codec_roundtrip():
    """4-sample clip through the REAL WAV codec: int16 PCM, mono and
    stereo, bit-exact samples + rate/channel metadata."""
    s = np.array([-32768, -1, 0, 32767], np.int16)
    for chn in (1, 2):
        blob = multimodal.wav_encode(s, 22050, chn)
        dec, rate, c2 = multimodal.wav_decode(blob)
        assert rate == 22050 and c2 == chn
        assert np.array_equal(dec, s)
        assert multimodal.wav_meta(blob)[:3] == (chn, 22050, 16)
    with pytest.raises(ValueError):
        multimodal.wav_decode(b"RIFFxxxxAVI ")
    with pytest.raises(NotImplementedError):
        # fmt tag 2 (ADPCM) is not PCM
        import struct
        fmt = struct.pack("<HHIIHH", 2, 1, 8000, 16000, 2, 16)
        multimodal.wav_decode(
            b"RIFF" + struct.pack("<I", 28) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", 0))


def test_decode_stage_real_png_wav():
    """DecodeStage(fake=False) decodes real PNG and WAV payloads via the
    stdlib codecs: the feature histogram is the luma / 8-bit-amplitude
    histogram, not the raw-byte histogram."""
    img = np.full((4, 4), 200, np.uint8)  # constant luma 200 → bin 12
    png = multimodal.png_encode(img, filters=2)
    s = np.full(8, 0, np.int16)  # amplitude 0 → (0+32768)>>8 = 128 → bin 8
    wav = multimodal.wav_encode(s, 8000, 1)
    stage = multimodal.DecodeStage(fake=False)
    out = stage(pa.table({"id": [1, 2],
                          "payload": pa.array([png, wav], pa.binary())}))
    f_png, f_wav = out.column("features").to_pylist()
    assert f_png[12] == pytest.approx(1.0)
    assert f_wav[8] == pytest.approx(1.0)


def test_jpeg_codec_roundtrip():
    """Baseline JPEG encode→decode: exact for constant rasters with a
    uniform quant table, bounded error (±1 gray, ±3 RGB through the
    YCbCr integer round-trips) at quant=1 on arbitrary content, and
    correct shapes/channels for gray, RGB 4:4:4 and RGB 4:2:0."""
    from deepwebharvester_ray.functions.jpeg import (
        jpeg_decode,
        jpeg_encode,
    )

    rng = np.random.default_rng(7)
    ones = np.ones((8, 8), np.int64)

    # constant gray: exact
    img = np.full((16, 24), 137, np.uint8)
    assert np.array_equal(jpeg_decode(jpeg_encode(img, quant_luma=ones)),
                          img)
    # arbitrary gray at quant=1: IDCT rounding only
    img = rng.integers(0, 256, (24, 17), np.uint8)  # non-multiple dims
    dec = jpeg_decode(jpeg_encode(img, quant_luma=ones))
    assert dec.shape == img.shape
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 1
    # RGB 4:4:4 at quant=1: + YCbCr integer round-trip error
    img3 = rng.integers(0, 256, (20, 21, 3), np.uint8)
    dec3 = jpeg_decode(jpeg_encode(img3, quant_luma=ones,
                                   quant_chroma=ones))
    assert dec3.shape == img3.shape
    # ±0.5 per YCbCr rounding × up to 1.772 chroma gain + IDCT ±1 → ≤ 4
    assert np.abs(dec3.astype(int) - img3.astype(int)).max() <= 4
    # RGB 4:2:0: shape preserved; constant color survives subsampling
    flat = np.zeros((16, 16, 3), np.uint8)
    flat[..., 0], flat[..., 1], flat[..., 2] = 200, 30, 90
    d420 = jpeg_decode(jpeg_encode(flat, subsampling="420",
                                   quant_luma=ones, quant_chroma=ones))
    assert d420.shape == flat.shape
    assert np.abs(d420.astype(int) - flat.astype(int)).max() <= 3
    assert len(np.unique(d420.reshape(-1, 3), axis=0)) == 1
    # default Annex K tables: decodes, stays in range
    dec = jpeg_decode(jpeg_encode(img3))
    assert dec.shape == img3.shape and dec.dtype == np.uint8


def test_jpeg_codec_gates():
    """Honest capability gates: progressive frames and restart
    intervals raise NotImplementedError; garbage raises ValueError."""
    from deepwebharvester_ray.functions.jpeg import (
        jpeg_decode,
        jpeg_encode,
    )

    blob = bytearray(jpeg_encode(np.full((8, 8), 7, np.uint8)))
    sof = bytes(blob).find(b"\xff\xc0")
    blob[sof + 1] = 0xC2  # rewrite SOF0 → SOF2 (progressive)
    with pytest.raises(NotImplementedError):
        jpeg_decode(bytes(blob))
    with pytest.raises(ValueError):
        jpeg_decode(b"not a jpeg")
    with pytest.raises(NotImplementedError):
        jpeg_encode(np.zeros((8, 8, 3), np.uint8), subsampling="422")


def test_decode_stage_real_jpeg():
    """DecodeStage(fake=False) decodes real baseline JPEG payloads: a
    constant-gray image (uniform quant → exact) lands its whole luma
    histogram in one bin."""
    from deepwebharvester_ray.functions.jpeg import jpeg_encode

    ones = np.ones((8, 8), np.int64)
    img = np.full((8, 8), 200, np.uint8)  # luma 200 → bin 12
    blob = jpeg_encode(img, quant_luma=ones)
    stage = multimodal.DecodeStage(fake=False)
    out = stage(pa.table({"id": [1],
                          "payload": pa.array([blob], pa.binary())}))
    feats = out.column("features").to_pylist()[0]
    assert feats[12] == pytest.approx(1.0)


def test_resize_stage_real_png():
    """ResizeStage(fake=False) decodes a real PNG and resizes its luma
    raster with the pinned nearest-neighbor rule."""
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    png = multimodal.png_encode(img)
    stage = multimodal.ResizeStage(out_h=2, out_w=2, fake=False)
    out = stage(pa.table({"payload": pa.array([png], pa.binary())}))
    row = out.to_pylist()[0]
    assert row["src_h"] == 4 and row["src_w"] == 4
    assert list(row["pixels"]) == [5, 7, 13, 15]


def test_frame_sample_stub_raises():
    stage = multimodal.FrameSampleStage(binary_column="video")
    with pytest.raises(NotImplementedError):
        stage(pa.table({"video": pa.array([b"x"], pa.binary())}))


def test_gif_codec_roundtrip():
    """Hand-built rasters through the REAL pure-stdlib GIF LZW codec:
    random and run-heavy data (KwKwK + width growth + 4096-dict
    reset), custom palettes, container parse under image_dims, and the
    interlace/bad-input gates."""
    rng = np.random.RandomState(4)
    for h, w in ((1, 1), (2, 3), (40, 40), (150, 150)):
        img = rng.randint(0, 256, (h, w), dtype=np.uint8)
        blob = multimodal.gif_encode(img)
        idx, pal = multimodal.gif_decode(blob)
        assert np.array_equal(idx, img), (h, w)
        assert multimodal.image_dims(blob) == ("gif", w, h)
        assert pal[17].tolist() == [17, 17, 17]  # grayscale identity
    # run-heavy: exercises KwKwK and the dictionary reset at 4096
    img = np.repeat(np.arange(200) % 5, 900).astype(np.uint8).reshape(
        300, -1)
    assert np.array_equal(
        multimodal.gif_decode(multimodal.gif_encode(img))[0], img)
    # custom palette round-trips
    pal_in = rng.randint(0, 256, (256, 3), dtype=np.uint8)
    _, pal = multimodal.gif_decode(
        multimodal.gif_encode(np.zeros((2, 2), np.uint8),
                              palette=pal_in))
    assert np.array_equal(pal, pal_in)
    with pytest.raises(ValueError):
        multimodal.gif_decode(b"JFIF not a gif")
    # interlace flag gates honestly
    blob = bytearray(multimodal.gif_encode(np.zeros((2, 2), np.uint8)))
    desc = 13 + 768  # header+LSD, then the 256-entry GCT
    assert blob[desc] == 0x2C
    blob[desc + 9] |= 0x40  # set interlace bit in the image descriptor
    with pytest.raises(NotImplementedError):
        multimodal.gif_decode(bytes(blob))


def test_decode_stage_real_gif():
    """DecodeStage(fake=False) decodes a real GIF via the stdlib LZW
    codec: features are the palette-luma histogram."""
    img = np.full((5, 5), 200, np.uint8)  # gray palette → luma 200
    stage = multimodal.DecodeStage(fake=False)
    out = stage(pa.table({"payload": pa.array(
        [multimodal.gif_encode(img)], pa.binary())}))
    feats = out.column("features").to_pylist()[0]
    assert feats[12] == pytest.approx(1.0)  # bin 200//16


def test_dhash64_invariances():
    """The 64-bit difference hash: duplicate images collide, uniform
    brightness shifts (no clipping) collide, a decoded-PNG round trip
    collides with the raw raster, and the single-pixel degenerate
    image hashes to zero."""
    rng = np.random.RandomState(3)
    img = rng.randint(0, 200, (12, 14), np.uint8)
    h1 = multimodal.dhash64(img)
    assert multimodal.dhash64(img.copy()) == h1
    shifted = np.clip(img.astype(np.int64) + 10, 0, 255).astype(np.uint8)
    assert multimodal.dhash64(shifted) == h1
    assert multimodal.dhash64(
        multimodal.png_luma(multimodal.png_decode(
            multimodal.png_encode(img)))) == h1
    assert multimodal.dhash64(np.array([[5]], np.uint8)) == (0, 0)
    # halves stay in 32-bit signed range (two int64 SQL columns)
    assert 0 <= h1[0] < 1 << 32 and 0 <= h1[1] < 1 << 32


def test_spectrogram_stage_exact_bin_tone():
    """SpectrogramStage: an exact-bin pure tone's dominant bin is its
    cycle count (rectangular window, leakage-free), frames count
    matches the hop arithmetic, and short payloads degrade to the
    (0, -1, -1) sentinel."""
    rate, n_fft, k = 8000, 512, 37
    j = np.arange(4 * n_fft)
    s = np.round(20000 * np.sin(2 * np.pi * k * j / n_fft)).astype(
        np.int16)
    stage = multimodal.SpectrogramStage(n_fft=n_fft)
    out = stage(pa.table({"payload": pa.array(
        [multimodal.wav_encode(s, rate, 1)], pa.binary())}))
    row = out.to_pylist()[0]
    assert (row["n_frames"], row["dominant_bin"],
            row["dominant_hz"]) == (4, k, k * rate // n_fft)
    # stereo: channel 0 carries the tone, channel 1 silence
    st = np.zeros(2 * len(s), np.int16)
    st[0::2] = s
    row = stage(pa.table({"payload": pa.array(
        [multimodal.wav_encode(st, rate, 2)], pa.binary())})).to_pylist()[0]
    assert row["dominant_bin"] == k
    # payload shorter than one window
    row = stage(pa.table({"payload": pa.array(
        [multimodal.wav_encode(s[:100], rate, 1)],
        pa.binary())})).to_pylist()[0]
    assert (row["n_frames"], row["dominant_bin"]) == (0, -1)
    # per-frame fingerprint mode: a 3-tone chirp yields its bin
    # sequence, amplitude-invariant (the audio_neardup key)
    jj = np.arange(n_fft)
    segs = [np.round(a * np.sin(2 * np.pi * kk * jj / n_fft))
            for a, kk in ((20000, 11), (20000, 80), (20000, 7))]
    chirp = np.concatenate(segs).astype(np.int16)
    pf = multimodal.SpectrogramStage(n_fft=n_fft, per_frame=True)
    row = pf(pa.table({"payload": pa.array(
        [multimodal.wav_encode(chirp, rate, 1)],
        pa.binary())})).to_pylist()[0]
    assert row["frame_bins"] == [11, 80, 7]
    half = (chirp.astype(np.int64) // 2).astype(np.int16)
    row2 = pf(pa.table({"payload": pa.array(
        [multimodal.wav_encode(half, rate, 1)],
        pa.binary())})).to_pylist()[0]
    assert row2["frame_bins"] == [11, 80, 7]


def test_mp4_demux_roundtrip():
    """Hand-built MP4s through the REAL sample-table demux: variable
    stsz, multi-run stsc (chunk sizes 1/3/7), uniform stsz, co64
    offsets — every sample comes back byte-exact in order."""
    rng = np.random.RandomState(11)
    for n in (1, 2, 3, 7, 10, 23):
        frames = [rng.bytes(int(rng.randint(1, 40))) for _ in range(n)]
        for cs in (1, 3, 7):
            blob = multimodal.mp4_encode_samples(frames, chunk_size=cs)
            got = [blob[o:o + s] for o, s in multimodal.mp4_samples(blob)]
            assert got == frames, (n, cs)
    # uniform stsz branch
    eq = [bytes([i]) * 6 for i in range(5)]
    blob = multimodal.mp4_encode_samples(eq, chunk_size=2,
                                         uniform_stsz=True)
    got = [blob[o:o + s] for o, s in multimodal.mp4_samples(blob)]
    assert got == eq
    # co64 (64-bit chunk offsets) branch
    blob = multimodal.mp4_encode_samples(eq, chunk_size=2, use_co64=True)
    got = [blob[o:o + s] for o, s in multimodal.mp4_samples(blob)]
    assert got == eq
    # track selection prefers the vide handler; soun-only still parses
    blob = multimodal.mp4_encode_samples(eq, handler=b"soun")
    assert len(multimodal.mp4_samples(blob)) == 5
    # mp4_meta still reads duration from the same container
    br, ts, dur = multimodal.mp4_meta(
        multimodal.mp4_encode_samples([b"xx"] * 5))
    assert (br, ts, dur) == ("isom", 1000, 200)  # 5×40 / 1000 ms
    with pytest.raises(ValueError):
        multimodal.mp4_samples(b"not an mp4 at all!")


def test_frame_sample_real_mp4():
    """FrameSampleStage(fake=False) demuxes a real MP4: uniform
    temporal sampling over the actual stbl-extracted frames."""
    frames = [bytes([i]) * (i + 3) for i in range(10)]
    blob = multimodal.mp4_encode_samples(frames, chunk_size=3)
    stage = multimodal.FrameSampleStage(n_frames=4, fake=False)
    out = stage(pa.table({"payload": pa.array([blob], pa.binary())}))
    row = out.to_pylist()[0]
    assert row["n_total_frames"] == 10
    assert row["frame_indices"] == [0, 2, 5, 7]
    assert [bytes(f) for f in row["frames"]] == [frames[i]
                                                 for i in (0, 2, 5, 7)]


def test_frame_sample_fake_plumbing():
    """Fixed-size fake frames: uniform sampling indices, short payloads
    keep every frame, trailing partial frames are dropped, output layout
    is list<binary> + counts."""
    import ray

    fb = 4
    long = bytes(range(10 * fb))          # 10 frames
    short = bytes(range(2 * fb + 3))      # 2 frames + partial
    t = pa.table({"id": [1, 2],
                  "payload": pa.array([long, short], pa.binary())})
    out = multimodal.frame_sample(
        ray.data.from_arrow(t), n_frames=4, frame_bytes=fb, fake=True,
        batch_size=8,
    ).take_all()
    by_id = {r["id"]: r for r in out}
    assert by_id[1]["n_total_frames"] == 10
    assert by_id[1]["frame_indices"] == [0, 2, 5, 7]  # (i*10)//4
    assert [bytes(f) for f in by_id[1]["frames"]] == [
        long[i * fb:(i + 1) * fb] for i in (0, 2, 5, 7)]
    assert by_id[2]["n_total_frames"] == 2
    assert by_id[2]["frame_indices"] == [0, 1]
    assert len(by_id[2]["frames"]) == 2


def test_resize_stub_raises():
    stage = multimodal.ResizeStage()
    with pytest.raises(NotImplementedError):
        stage(pa.table({"payload": pa.array([b"x"], pa.binary())}))


def test_resize_nearest_neighbor_math():
    """The resize kernel is real: downsample of a known raster picks the
    pixel-center nearest neighbors; upsample repeats them; the gather
    cache returns identical results across calls."""
    stage = multimodal.ResizeStage(out_h=2, out_w=2, fake=True)
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    small = stage._resize(img)
    # centers at rows/cols (0.5, 1.5)*4/2 = 1, 3
    assert small.tolist() == [[5, 7], [13, 15]]
    again = stage._resize(img)
    assert (small == again).all() and len(stage._idx_cache) == 1
    up = multimodal.ResizeStage(out_h=4, out_w=4, fake=True)._resize(
        np.array([[1, 2], [3, 4]], np.uint8))
    assert up.tolist() == [[1, 1, 2, 2], [1, 1, 2, 2],
                           [3, 3, 4, 4], [3, 3, 4, 4]]


def test_resize_actor_pool_plumbing(ray_session):
    import ray

    t = pa.table({"id": [1, 2],
                  "payload": pa.array([bytes(range(64)),  # 8×8 raster
                                       bytes(range(9))], pa.binary())})
    out = multimodal.resize_images(ray.data.from_arrow(t), out_h=4,
                                   out_w=4, fake=True,
                                   batch_size=8).take_all()
    by_id = {r["id"]: r for r in out}
    assert (by_id[1]["src_h"], by_id[1]["src_w"]) == (8, 8)
    px = np.frombuffer(by_id[1]["pixels"], np.uint8).reshape(4, 4)
    # pixel centers at (0.5..3.5)*8/4 = rows/cols 1,3,5,7 of the 8×8 ramp
    assert px.tolist() == (np.arange(64, dtype=np.uint8).reshape(8, 8)
                           [[1, 3, 5, 7]][:, [1, 3, 5, 7]]).tolist()
    assert (by_id[2]["src_h"], by_id[2]["src_w"]) == (3, 3)
    assert len(by_id[2]["pixels"]) == 16


def test_salted_repartition_spreads_hot_key(ray_session):
    """A mega-host's rows spread across n_salts sub-keys; cold hosts keep
    salt 0 (single partition each)."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.partition import (
        detect_hot_keys,
        salted_repartition,
    )

    rows = [{"host": "mega.onion", "url": f"http://mega.onion/p/{i}"} for i in range(900)]
    rows += [{"host": f"h{i}.onion", "url": f"http://h{i}.onion/p"} for i in range(30)]
    ds = ray.data.from_items(rows)

    hot = detect_hot_keys(ds, "host", threshold_fraction=0.1)
    assert hot == frozenset({"mega.onion"})

    salted = salted_repartition(
        ds, "host", hot, n_salts=8, row_id_column="url"
    ).take_all()
    mega_salts = {r["salt"] for r in salted if r["host"] == "mega.onion"}
    cold_salts = {r["salt"] for r in salted if r["host"] != "mega.onion"}
    assert len(mega_salts) == 8          # hot key spread across all salts
    assert cold_salts == {0}             # cold keys unsalted
    # deterministic: same input → same salts
    again = salted_repartition(
        ds, "host", hot, n_salts=8, row_id_column="url"
    ).take_all()
    assert sorted((r["url"], r["salt"]) for r in salted) == sorted(
        (r["url"], r["salt"]) for r in again
    )


def test_ngram_overlap_pairs():
    shared = "one two three four five six seven eight"  # exactly 8 tokens
    texts = [
        f"pre{i} {shared} post{i} " + " ".join(f"u{i}v{j}" for j in range(10))
        for i in range(3)
    ]  # docs 0,1,2 share one exact 8-token window
    texts.append(" ".join(f"solo{j}" for j in range(20)))  # 3: no overlap
    texts.append("short doc")                              # 4: < k tokens
    out = dedup.ngram_overlap_pairs(_docs_ds(texts), k=8).take_all()
    pairs = {(r["id_a"], r["id_b"]) for r in out}
    assert pairs == {(0, 1), (0, 2), (1, 2)}
    # pairs are distinct even when docs share multiple windows
    assert len(out) == len(pairs)


def test_ngram_overlap_hot_bucket_guard():
    shared = "a b c d e f g h"
    texts = [f"x{i} {shared}" for i in range(6)]
    out = dedup.ngram_overlap_pairs(_docs_ds(texts), k=8, max_bucket=3).take_all()
    assert out == []  # bucket of 6 docs exceeds the guard → skipped


def test_passage_dup_profile():
    """Interval-union coverage vs hand-computed truth: overlapping
    windows merge, disjoint dup regions add, dup-free / short / empty
    docs report zero."""
    import ray

    docs = {
        1: "a b c d e f g h",            # full overlap with doc 4 → 8/8
        2: "x y c d e f q r s",          # windows at pos 2,3 shared → 4
        3: "unique words only here zz",  # no dups
        4: "a b c d e f g h",            # exact dup of doc 1
        5: "short one",                  # < k tokens: no windows
        6: "",                           # empty text
        7: "p q r 1 2 3 4 5 6 7 8 9 p q r",  # two DISJOINT dup regions
        8: "p q r zz yy",
    }
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in docs.items()])
    got = {r["doc_id"]: (r["tokens_total"], r["tokens_dup"])
           for r in dedup.passage_dup_profile(ds, k=3).take_all()}
    assert got == {1: (8, 8), 2: (9, 4), 3: (5, 0), 4: (8, 8),
                   5: (2, 0), 6: (0, 0), 7: (15, 6), 8: (5, 3)}


def test_passage_dup_profile_boilerplate_is_linear():
    """A window shared by EVERY doc marks all of them (run-scan, no pair
    emission) — the hot-bucket case other gram ops must guard against is
    just a long run here."""
    import ray

    boiler = "terms of service apply to all pages"
    ds = ray.data.from_items(
        [{"doc_id": i, "text": f"u{i} {boiler}"} for i in range(50)])
    out = dedup.passage_dup_profile(ds, k=7).take_all()
    assert len(out) == 50
    assert all(r["tokens_dup"] == 7 and r["tokens_total"] == 8 for r in out)


def _brute_remove_spans(docs, k):
    """Sequential ExactSubstr reference: mark every non-first occurrence
    of a cross-doc k-gram, excise the interval union, rejoin tokens."""
    import re

    import numpy as np

    tok_re = re.compile(r"\S+")
    toks = {i: tok_re.findall(t or "") for i, t in docs.items()}
    occ = {}
    for i, ts in sorted(toks.items()):
        for p in range(len(ts) - k + 1):
            occ.setdefault(" ".join(ts[p:p + k]), []).append((i, p))
    marked = {}
    for g, os_ in occ.items():
        if len({i for i, _ in os_}) >= 2:
            first = min(os_)
            for o in os_:
                if o != first:
                    marked.setdefault(o[0], []).append(o[1])
    out = {}
    for i, ts in toks.items():
        cov = np.zeros(len(ts), bool)
        for p in marked.get(i, []):
            cov[p:p + k] = True
        out[i] = (" ".join(w for w, c in zip(ts, cov) if not c),
                  len(ts), int(cov.sum()))
    return out


def test_remove_dup_spans_semantics():
    """ExactSubstr transform contract: the globally-first occurrence of a
    cross-doc window SURVIVES, every later occurrence (other docs AND
    later repeats in any doc) is excised; same-doc-only repeats are NOT
    cross-doc and stay; short/empty docs pass through rejoined."""
    import ray

    docs = {
        1: "a b c d e f g h tail1 unique1",       # canonical (1, 0)
        2: "x y a b c d e f g h tail2",           # dup at (2, 2) → cut
        3: "short doc",
        4: "",
        5: "a b c d e f g h a b c d e f g h",     # both halves cut
        6: "p q r s t u v w p q r s t u v w z6",  # self-repeat only
    }
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in docs.items()])
    got = {r["doc_id"]: (r["text_clean"], r["tokens_total"],
                         r["tokens_removed"])
           for r in dedup.remove_dup_spans(ds, k=8).take_all()}
    assert got == _brute_remove_spans(docs, 8)
    assert got[1][0] == docs[1]          # canonical doc untouched
    assert got[2] == ("x y tail2", 11, 8)   # span [2, 10) excised
    assert got[5] == ("", 16, 16)
    assert got[6][2] == 0                # same-doc repeat: not cross-doc


def test_remove_dup_spans_paths_agree():
    """Broadcast attach and forced left-outer-join attach produce the
    identical rewrite on a random corpus with planted duplicate spans."""
    import random

    import ray

    rng = random.Random(7)
    shared = ["s%d" % j for j in range(10)]
    docs = {}
    for i in range(40):
        words = ["d%d_%d" % (i, j) for j in range(rng.randrange(3, 20))]
        if i % 3 == 0:  # plant the shared passage at a random offset
            at = rng.randrange(0, len(words))
            words[at:at] = shared
        docs[i] = " ".join(words)
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in docs.items()]).repartition(5)
    exp = _brute_remove_spans(docs, 6)
    for cutoff in (None, 0):
        got = {r["doc_id"]: (r["text_clean"], r["tokens_total"],
                             r["tokens_removed"])
               for r in dedup.remove_dup_spans(
                   ds, k=6, broadcast_cutoff=cutoff).take_all()}
        assert got == exp
    assert sum(v[2] > 0 for v in exp.values()) >= 12  # test is substantive


def test_dedup_index_build_probe():
    """Build-once/probe-many exact-dedup index: delta docs classify as
    dup (with the MIN base id) or new, identically through the broadcast
    and forced-native-join membership paths; delta-internal duplicates
    are NOT folded (the incremental contract)."""
    import tempfile

    import ray

    from deepwebharvester_ray.functions.dedup import (dedup_index_build,
                                                      dedup_index_probe)

    base = [(i, f"base text number {i} with words {i * 7 % 13}")
            for i in range(200)]
    delta = [(1000, base[5][1]), (1001, base[17][1]),
             (1002, "totally new text zz"), (1003, base[5][1])]
    bds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in base]).repartition(4)
    dds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in delta]).repartition(2)
    with tempfile.TemporaryDirectory(dir="/tmp") as idx:
        info = dedup_index_build(bds, idx, n_buckets=8)
        assert info["rows"] == 200
        exp = {1000: (1, 5), 1001: (1, 17), 1002: (0, -1), 1003: (1, 5)}
        for cutoff in (None, 0):
            got = {r["doc_id"]: (r["is_dup"], r["base_doc_id"])
                   for r in dedup_index_probe(
                       dds, idx, broadcast_cutoff=cutoff).take_all()}
            assert got == exp, cutoff


def test_dedup_index_probe_reads_only_touched_buckets():
    """Physical pruning contract: corrupting every bucket the delta does
    NOT touch leaves the probe working — its I/O is delta-proportional,
    never index-proportional."""
    import glob
    import hashlib
    import os
    import tempfile

    import numpy as np
    import ray

    from deepwebharvester_ray.functions.dedup import (dedup_index_build,
                                                      dedup_index_probe)
    from deepwebharvester_ray.sinks import _shard_of

    base = [(i, f"page body {i} {i * 31 % 17}") for i in range(100)]
    bds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in base]).repartition(4)
    with tempfile.TemporaryDirectory(dir="/tmp") as idx:
        dedup_index_build(bds, idx, n_buckets=8)
        fp = np.asarray(
            [int(hashlib.md5(base[5][1].encode()).hexdigest()[:15], 16)],
            np.int64)
        touched = os.path.join(idx, f"bucket={_shard_of(fp, 8)[0]}")
        for d in glob.glob(os.path.join(idx, "bucket=*")):
            if d != touched:
                for f in glob.glob(os.path.join(d, "*")):
                    with open(f, "wb") as fh:
                        fh.write(b"CORRUPTED NOT PARQUET")
        one = ray.data.from_items([{"doc_id": 2000, "text": base[5][1]}])
        res = dedup_index_probe(one, idx).take_all()
        assert len(res) == 1
        assert res[0]["is_dup"] == 1 and res[0]["base_doc_id"] == 5


def test_contamination_profile_llama2_rule():
    """Per-eval-item coverage vs hand-computed truth: overlapping
    corpus-shared windows union, clean and short bench docs report 0,
    fully-leaked items hit 100 %; corpus docs never appear in the
    output."""
    import ray

    from deepwebharvester_ray.functions.dedup import contamination_profile

    corpus = {
        1: "a b c d e f g h corpus tail words here",
        2: "x y z 1 2 3 4 5",
    }
    bench = {
        10: "a b c d e f g h",                # fully leaked → 8/8
        11: "pre a b c d e f g h post",       # middle leak → 8/10
        12: "clean eval item nothing shared at all",
        13: "tiny",                           # < k tokens → 0/1
        14: "x y z 1 2 3 4 5 a b c d e f g h",  # two leaked regions
    }
    cds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in corpus.items()])
    bds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in bench.items()])
    got = {r["doc_id"]: (r["tokens_total"], r["tokens_contaminated"])
           for r in contamination_profile(cds, bds, k=8).take_all()}
    assert got == {10: (8, 8), 11: (10, 8), 12: (7, 0), 13: (1, 0),
                   14: (16, 16)}


def test_remove_dup_spans_boilerplate_is_linear():
    """A window shared by EVERY doc: run-scan marking, no pair emission —
    exactly one doc keeps the boilerplate, all others lose it."""
    import ray

    boiler = "terms of service apply to all pages"
    ds = ray.data.from_items(
        [{"doc_id": i, "text": f"u{i} {boiler}"} for i in range(50)])
    out = dedup.remove_dup_spans(ds, k=7).take_all()
    assert len(out) == 50
    kept = [r for r in out if r["tokens_removed"] == 0]
    assert len(kept) == 1 and kept[0]["doc_id"] == 0
    assert all(r["text_clean"] == f"u{r['doc_id']}"
               for r in out if r["doc_id"] > 0)


def test_grouped_quantiles_percentile_disc_semantics():
    import ray

    from deepwebharvester_ray.functions.agg import grouped_quantiles

    rows = [{"k": "a", "v": i} for i in range(1, 5)]      # 1..4 (even n)
    rows += [{"k": "b", "v": i * 10} for i in range(1, 4)]  # 10,20,30 (odd n)
    rows += [{"k": "c", "v": 7}, {"k": "c", "v": 7}, {"k": "c", "v": 9}]  # ties
    ds = ray.data.from_items(rows)
    out = {
        r["k"]: r
        for r in grouped_quantiles(
            ds, "k", "v", ps=[0.5, 0.99], out_cols=["p50", "p99"]
        ).take_all()
    }
    # percentile_disc(0.5): smallest v with cume_dist >= 0.5
    assert out["a"]["p50"] == 2 and out["a"]["p99"] == 4
    assert out["b"]["p50"] == 20 and out["b"]["p99"] == 30
    assert out["c"]["p50"] == 7 and out["c"]["p99"] == 9


def test_asof_join_semantics():
    import datetime as dt

    import ray

    from deepwebharvester_ray.functions.asof import asof_join

    t0 = dt.datetime(2024, 1, 1)

    def ts(s):
        return t0 + dt.timedelta(seconds=s)

    left = ray.data.from_items([
        {"eid": 1, "k": 1, "ts": ts(10)},   # matches right@5
        {"eid": 2, "k": 1, "ts": ts(20)},   # matches right@20 (inclusive tie)
        {"eid": 3, "k": 2, "ts": ts(3)},    # no preceding right → dropped
        {"eid": 4, "k": 2, "ts": ts(99)},   # matches right@50
        {"eid": 5, "k": 3, "ts": ts(7)},    # key with no right rows → dropped
    ])
    right = ray.data.from_items([
        {"k": 1, "ts": ts(5)},
        {"k": 1, "ts": ts(20)},
        {"k": 2, "ts": ts(50)},
    ])
    out = {
        r["eid"]: r
        for r in asof_join(left, right, key="k", ts="ts",
                           left_cols=["eid"]).take_all()
    }
    assert set(out) == {1, 2, 4}
    assert out[1]["prev_ts"] == ts(5) and out[1]["gap_us"] == 5_000_000
    assert out[2]["prev_ts"] == ts(20) and out[2]["gap_us"] == 0
    assert out[4]["prev_ts"] == ts(50) and out[4]["gap_us"] == 49_000_000


def test_prefix_scan_and_packing_multiblock():
    import ray

    from deepwebharvester_ray.functions.scan import pack_sequences, prefix_scan

    # 40 docs across several blocks; tokens 1..40 → running sums known
    ds = ray.data.from_items(
        [{"doc_id": i, "n": i + 1} for i in range(40)]
    ).repartition(8)
    out = {r["doc_id"]: r["running"]
           for r in prefix_scan(ds, "doc_id", "n").take_all()}
    acc = 0
    for i in range(40):
        acc += i + 1
        assert out[i] == acc

    packed = {r["doc_id"]: r["bin_id"]
              for r in pack_sequences(ds, "doc_id", "n", capacity=50).take_all()}
    # doc's bin = exclusive prefix // 50
    acc = 0
    for i in range(40):
        assert packed[i] == acc // 50
        acc += i + 1


def test_prefix_scan_multicolumn():
    """List-form value_col scans several columns in ONE sort with the
    same per-block offsets (the ks_test shape: parallel cumulative
    counts of two populations)."""
    import ray

    from deepwebharvester_ray.functions.scan import prefix_scan

    ds = ray.data.from_items(
        [{"k": i, "a": i % 3, "b": 2 * i} for i in range(30)]
    ).repartition(6)
    out = {r["k"]: (r["ca"], r["cb"])
           for r in prefix_scan(ds, "k", ["a", "b"], ["ca", "cb"]).take_all()}
    acc_a = acc_b = 0
    for i in range(30):
        acc_a += i % 3
        acc_b += 2 * i
        assert out[i] == (acc_a, acc_b)


def test_grouped_prefix_scan_matches_window_reference():
    """Groups interleaved across many blocks: running per-group sum in
    global key order must match SUM() OVER (PARTITION BY g ORDER BY k)
    computed directly — block cuts anywhere in key order must not lose
    or double a segment (cross-block offset accumulation)."""
    import ray

    from deepwebharvester_ray.functions.scan import grouped_prefix_scan

    rng = np.random.default_rng(5)
    n = 300
    groups = [f"g{int(x)}" for x in rng.integers(0, 7, n)]
    vals = rng.integers(1, 9, n).astype(int)
    rows = [{"k": i, "g": groups[i], "v": int(vals[i])} for i in range(n)]
    rng.shuffle(rows)  # storage order ≠ key order

    ds = ray.data.from_items(rows).repartition(11)
    out = {r["k"]: r["running"]
           for r in grouped_prefix_scan(ds, "k", "g", "v").take_all()}

    acc: dict = {}
    for i in range(n):
        acc[groups[i]] = acc.get(groups[i], 0) + int(vals[i])
        assert out[i] == acc[groups[i]], f"row {i}"


def test_grouped_prefix_scan_composite_key():
    """Multi-key form (ORDER BY k1, k2): heavy ties on the first key
    component broken by the second, groups interleaved, many blocks —
    must match SUM() OVER (PARTITION BY g ORDER BY k1, k2) exactly."""
    import ray

    from deepwebharvester_ray.functions.scan import grouped_prefix_scan

    rng = np.random.default_rng(9)
    n = 300
    k1 = rng.integers(0, 12, n)           # only 12 values: ties everywhere
    groups = [f"g{int(x)}" for x in rng.integers(0, 5, n)]
    vals = rng.integers(1, 9, n).astype(int)
    rows = [{"k1": int(k1[i]), "k2": i, "g": groups[i], "v": int(vals[i])}
            for i in range(n)]
    rng.shuffle(rows)

    ds = ray.data.from_items(rows).repartition(13)
    out = {(r["k1"], r["k2"]): r["running"]
           for r in grouped_prefix_scan(
               ds, ["k1", "k2"], "g", "v").take_all()}

    acc: dict = {}
    for i in sorted(range(n), key=lambda i: (int(k1[i]), i)):
        acc[groups[i]] = acc.get(groups[i], 0) + int(vals[i])
        assert out[(int(k1[i]), i)] == acc[groups[i]], f"row {i}"


def test_asof_join_matches_pandas_merge_asof():
    import datetime as dt

    import pandas as pd
    import ray

    rng = np.random.default_rng(11)
    t0 = dt.datetime(2024, 1, 1)
    n_l, n_r, n_keys = 600, 400, 40
    lk = rng.integers(0, n_keys, n_l)
    rk = rng.integers(0, n_keys, n_r)
    lts = [t0 + dt.timedelta(seconds=int(s)) for s in
           rng.choice(10_000, n_l, replace=False)]
    rts = [t0 + dt.timedelta(seconds=int(s)) for s in
           rng.choice(10_000, n_r, replace=False)]
    left = pd.DataFrame({"eid": np.arange(n_l), "k": lk, "ts": lts})
    right = pd.DataFrame({"k": rk, "ts": rts})

    lds = ray.data.from_pandas(left).repartition(16)
    rds = ray.data.from_pandas(right).repartition(16)

    from deepwebharvester_ray.functions.asof import asof_join

    mine = {r["eid"]: r["prev_ts"]
            for r in asof_join(lds, rds, key="k", ts="ts",
                               left_cols=["eid"]).take_all()}

    ref = pd.merge_asof(
        left.sort_values("ts"), right.sort_values("ts").rename(
            columns={"ts": "rts"}).assign(ts=lambda d: d["rts"]),
        on="ts", by="k", direction="backward",
    )
    ref = ref.dropna(subset=["rts"])
    assert len(mine) == len(ref)
    for _, row in ref.iterrows():
        assert mine[row["eid"]] == row["rts"].to_pydatetime()


def test_hll_distinct_accuracy_and_merge():
    import ray

    from deepwebharvester_ray.functions import sketch

    # accuracy on 50k distinct values, split across blocks
    vals = [f"v{i}" for i in range(50_000)] * 2  # every value twice
    ds = ray.data.from_items([{"s": v} for v in vals]).repartition(16)
    est = sketch.hll_distinct(
        ds, lambda b: b.column("s").to_pylist()
    ).column("n_distinct_est")[0].as_py()
    assert abs(est - 50_000) / 50_000 < 0.05

    # partial merge == whole-stream registers (mergeability)
    h = sketch._hash60([f"x{i}" for i in range(10_000)])
    whole = sketch.hll_registers(h)
    merged = np.maximum(sketch.hll_registers(h[:3000]),
                        sketch.hll_registers(h[3000:]))
    assert np.array_equal(whole, merged)


def test_connected_components():
    import ray

    from deepwebharvester_ray.functions.graph import connected_components

    # components: {1,2,3,9} (chain), {5,7}, {10,11}
    pairs = ray.data.from_items([
        {"id_a": 2, "id_b": 3},
        {"id_a": 1, "id_b": 2},
        {"id_a": 3, "id_b": 9},
        {"id_a": 5, "id_b": 7},
        {"id_a": 10, "id_b": 11},
    ])
    for lc in (2_000_000, 0):  # local union-find gate, then the
        out = {r["doc_id"]: r["cluster_id"]  # distributed min-label rounds
               for r in connected_components(
                   pairs, local_cutoff=lc).take_all()}
        assert out == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 7: 5,
                       10: 10, 11: 10}, lc


def test_connected_components_nonconvergence_raises():
    import ray

    from deepwebharvester_ray.functions.graph import connected_components

    chain = ray.data.from_items(
        [{"id_a": i, "id_b": i + 1} for i in range(4)]
    )
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(chain, max_rounds=1, local_cutoff=0)
    out = {r["doc_id"]: r["cluster_id"]
           for r in connected_components(chain, max_rounds=10,
                                         local_cutoff=0).take_all()}
    assert set(out.values()) == {0}


# ── grouped_agg final-mode equivalence ───────────────────────────────────────


def test_grouped_agg_native_matches_single():
    """The high-cardinality native final merge must produce exactly the
    single-block result (same rows, same key order)."""
    import ray

    from deepwebharvester_ray.functions.agg import grouped_agg

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 997, 20_000)
    vals = rng.integers(0, 1000, 20_000)
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array(vals, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(8)
    specs = [("n", "", "count"), ("s", "v", "sum"),
             ("lo", "v", "min"), ("hi", "v", "max")]
    single = grouped_agg(ds, ["k"], specs, final_mode="single").to_pandas()
    native = grouped_agg(ds, ["k"], specs, final_mode="native").to_pandas()
    assert single.equals(native)
    # sanity vs pyarrow's own aggregation
    ref = (
        t.group_by(["k"])
        .aggregate([([], "count_all"), ("v", "sum"), ("v", "min"), ("v", "max")])
        .sort_by([("k", "ascending")])
    )
    assert single["n"].tolist() == ref.column("count_all").to_pylist()
    assert single["s"].tolist() == ref.column("v_sum").to_pylist()


def test_minhash_verify_paths_agree():
    """The broadcast (small-side) and distributed-join verification paths
    must produce identical pair sets and jaccard values."""
    base = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14"
    texts = [base, base + " extra", "other thing entirely different words",
             base + " extra more"]
    bc = dedup.minhash_lsh_pairs(
        _docs_ds(texts), threshold=0.4,
        verify_broadcast_cutoff=10**9,  # force broadcast
    ).take_all()
    jn = dedup.minhash_lsh_pairs(
        _docs_ds(texts), threshold=0.4,
        verify_broadcast_cutoff=0,      # force distributed joins
    ).take_all()
    key = lambda r: (r["id_a"], r["id_b"])
    assert sorted(map(key, bc)) == sorted(map(key, jn))
    jb = {key(r): r["jaccard"] for r in bc}
    jj = {key(r): r["jaccard"] for r in jn}
    assert jb == jj


# ── embedding LSH near-dup ───────────────────────────────────────────────────


def _emb_ds(vecs):
    import ray

    return ray.data.from_arrow(
        pa.table({
            "vec_id": list(range(len(vecs))),
            "embedding": pa.array([np.asarray(v, dtype=np.float64).tolist()
                                   for v in vecs], pa.list_(pa.float32())),
        })
    )


def test_lsh_bits_per_band_monotone():
    """Tighter thresholds admit wider (more selective) bands; the derived
    width stays within the uint64-band bounds."""
    widths = [dedup.lsh_bits_per_band(t, n_bands=16)
              for t in (0.45, 0.7, 0.9, 0.99)]
    assert widths == sorted(widths)
    assert all(1 <= w <= 20 for w in widths)


def test_embedding_neardup_lsh_matches_exact():
    """On a corpus of planted near-dup clusters + unrelated vectors the
    LSH path recovers exactly the pairs the exact blocked-matmul path
    finds (recall 1.0 here; false positives impossible — every candidate
    is exact-cosine verified)."""
    rng = np.random.default_rng(7)
    vecs = []
    for c in range(6):
        base = rng.standard_normal(32)
        vecs.append(base)
        vecs.append(base + rng.standard_normal(32) * 0.05)  # cos ≈ 0.998
    for _ in range(20):
        vecs.append(rng.standard_normal(32))  # unrelated
    exact = dedup.embedding_neardup_pairs(
        _emb_ds(vecs), threshold=0.95).take_all()
    lsh = dedup.embedding_neardup_lsh(
        _emb_ds(vecs), threshold=0.95).take_all()
    key = lambda r: (r["id_a"], r["id_b"])
    assert sorted(map(key, lsh)) == sorted(map(key, exact))
    ce = {key(r): r["cosine"] for r in exact}
    cl = {key(r): r["cosine"] for r in lsh}
    for k, v in cl.items():
        assert v == pytest.approx(ce[k], abs=1e-9)


def test_embedding_neardup_lsh_verify_paths_agree():
    """Broadcast and distributed-join verification must produce the same
    pair set and cosine values for the LSH candidates."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal(24)
    vecs = [base, base + rng.standard_normal(24) * 0.03,
            base + rng.standard_normal(24) * 0.04,
            rng.standard_normal(24)]
    bc = dedup.embedding_neardup_lsh(
        _emb_ds(vecs), threshold=0.9,
        verify_broadcast_cutoff=10**9,  # force broadcast
    ).take_all()
    jn = dedup.embedding_neardup_lsh(
        _emb_ds(vecs), threshold=0.9,
        verify_broadcast_cutoff=0,      # force distributed joins
    ).take_all()
    key = lambda r: (r["id_a"], r["id_b"])
    assert len(bc) >= 1
    assert sorted(map(key, bc)) == sorted(map(key, jn))
    cb = {key(r): r["cosine"] for r in bc}
    cj = {key(r): r["cosine"] for r in jn}
    assert cb == pytest.approx(cj)


# ── subtract_ids (dedup purge anti-filter) ───────────────────────────────────


def _ids_ds(ids, extra_col=True):
    import ray

    cols = {"doc_id": pa.array(ids, pa.int64())}
    if extra_col:
        cols["n"] = pa.array([i * 10 for i in ids], pa.int64())
    return ray.data.from_arrow(pa.table(cols))


def test_subtract_ids_broadcast_path():
    kept = dedup.subtract_ids(
        _ids_ds([1, 2, 3, 4, 5]), _ids_ds([2, 4, 9], extra_col=False),
        broadcast_cutoff=10**9,
    ).take_all()
    assert sorted(r["doc_id"] for r in kept) == [1, 3, 5]
    # payload columns survive the filter untouched
    assert {r["doc_id"]: r["n"] for r in kept} == {1: 10, 3: 30, 5: 50}


def test_subtract_ids_join_path_matches_broadcast():
    import ray

    ids = list(range(200))
    drop = [i for i in ids if i % 7 == 0]
    corpus = _ids_ds(ids)
    bc = dedup.subtract_ids(corpus, _ids_ds(drop, extra_col=False),
                            broadcast_cutoff=10**9).take_all()
    jn = dedup.subtract_ids(_ids_ds(ids), _ids_ds(drop, extra_col=False),
                            broadcast_cutoff=0).take_all()
    key = lambda rows: sorted((r["doc_id"], r["n"]) for r in rows)
    assert key(bc) == key(jn)
    assert len(bc) == len([i for i in ids if i % 7 != 0])
    # join path must not leak marker columns
    assert set(jn[0].keys()) == {"doc_id", "n"}


def test_subtract_ids_empty_drop_is_identity():
    import ray

    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64())}))
    kept = dedup.subtract_ids(_ids_ds([1, 2]), empty).take_all()
    assert sorted(r["doc_id"] for r in kept) == [1, 2]


def _labels_ds(pairs):
    import ray

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([p[0] for p in pairs], pa.int64()),
        "cluster_id": pa.array([p[1] for p in pairs], pa.int64()),
    }))


def test_attach_id_labels_broadcast_path():
    out = dedup.attach_id_labels(
        _ids_ds([1, 2, 3, 4, 5]), _labels_ds([(2, 20), (4, 20), (9, 90)]),
        broadcast_cutoff=10**9,
    ).take_all()
    # inner semantics: unlabeled rows (1, 3, 5) dropped, 9 absent from ds
    assert {r["doc_id"]: r["cluster_id"] for r in out} == {2: 20, 4: 20}
    # payload survives the attach untouched
    assert {r["doc_id"]: r["n"] for r in out} == {2: 20, 4: 40}


def test_attach_id_labels_join_path_matches_broadcast():
    ids = list(range(200))
    labels = [(i, i // 7) for i in ids if i % 3 == 0]
    bc = dedup.attach_id_labels(_ids_ds(ids), _labels_ds(labels),
                                broadcast_cutoff=10**9).take_all()
    jn = dedup.attach_id_labels(_ids_ds(ids), _labels_ds(labels),
                                broadcast_cutoff=0).take_all()
    key = lambda rows: sorted(
        (r["doc_id"], r["n"], r["cluster_id"]) for r in rows)
    assert key(bc) == key(jn)
    assert len(bc) == len(labels)
    # join path must not leak the marker id column
    assert set(jn[0].keys()) == {"doc_id", "n", "cluster_id"}


def test_attach_id_labels_empty_labels():
    import ray

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "cluster_id": pa.array([], pa.int64()),
    }))
    out = dedup.attach_id_labels(_ids_ds([1, 2]), empty).take_all()
    assert out == []


def test_embedding_neardup_lsh_loose_threshold_falls_back_exact():
    """Below the selectivity gate (derived band width < 8 bits) the LSH
    operator must route to the exact blocked matmul — recall exactly 1.0
    rather than near-all-pairs banding overhead."""
    assert dedup.lsh_bits_per_band(0.45, 16) < 8
    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    vecs = [base, base + rng.standard_normal(16) * 0.2,
            rng.standard_normal(16), rng.standard_normal(16)]
    exact = dedup.embedding_neardup_pairs(
        _emb_ds(vecs), threshold=0.45).take_all()
    gated = dedup.embedding_neardup_lsh(
        _emb_ds(vecs), threshold=0.45).take_all()
    key = lambda r: (r["id_a"], r["id_b"])
    assert sorted(map(key, gated)) == sorted(map(key, exact))


def _semdedup_corpus():
    """4 well-separated clusters of 40 vectors — dense in-cluster ≥0.95
    pairs, none across clusters."""
    rng = np.random.default_rng(17)
    base = rng.standard_normal((4, 16)) * 10
    vecs = []
    for c in range(4):
        for _ in range(40):
            vecs.append(base[c] + rng.standard_normal(16) * 0.8)
    return vecs


def test_semantic_dedup_single_cell_is_exact():
    """n_cells=1 degenerates SemDeDup to the exact all-pairs matmul:
    identical pair set, identical float64 cosines."""
    vecs = _semdedup_corpus()
    exact = dedup.embedding_neardup_pairs(
        _emb_ds(vecs), threshold=0.95).take_all()
    sem = dedup.semantic_dedup_pairs(
        _emb_ds(vecs), threshold=0.95, n_cells=1).take_all()
    key = lambda r: (r["id_a"], r["id_b"])
    assert len(exact) > 100
    assert sorted(map(key, sem)) == sorted(map(key, exact))
    ce = {key(r): r["cosine"] for r in exact}
    for r in sem:
        assert r["cosine"] == pytest.approx(ce[key(r)], abs=1e-12)


def test_semantic_dedup_multicell_subset_with_high_recall():
    """At n_cells>1 the pairs are a strict no-false-positive SUBSET of
    the exact pairs (the SemDeDup within-cell approximation), with high
    recall on a clustered corpus; the tiled matmul (tile smaller than
    the cells) must not change the result."""
    vecs = _semdedup_corpus()
    exact = {(r["id_a"], r["id_b"]) for r in dedup.embedding_neardup_pairs(
        _emb_ds(vecs), threshold=0.95).take_all()}
    sem = {(r["id_a"], r["id_b"]) for r in dedup.semantic_dedup_pairs(
        _emb_ds(vecs), threshold=0.95, n_cells=4).take_all()}
    tiled = {(r["id_a"], r["id_b"]) for r in dedup.semantic_dedup_pairs(
        _emb_ds(vecs), threshold=0.95, n_cells=4, tile=13).take_all()}
    assert sem <= exact
    assert len(sem) >= 0.8 * len(exact)
    assert tiled == sem


def test_semantic_dedup_hot_cell_guard_and_empty():
    """Cells above max_cell are skipped (documented guard) and an empty
    dataset returns an empty pair table, not a crash."""
    import ray

    vecs = _semdedup_corpus()
    guarded = dedup.semantic_dedup_pairs(
        _emb_ds(vecs), threshold=0.95, n_cells=1, max_cell=8).take_all()
    assert guarded == []
    empty = dedup.semantic_dedup_pairs(
        _emb_ds(vecs[:2]).filter(lambda r: False),
        threshold=0.95, n_cells=4).take_all()
    assert empty == []


def test_kmeans_assign(emb_ds):
    """Every vector gets exactly one cell, the assignment is
    deterministic across runs and block layouts, and each vector's cell
    is its argmax-cosine centroid (checked directly against the shared
    trainer's centroids)."""
    out = ann.kmeans_assign(emb_ds, n_cells=8).take_all()
    assert len(out) == emb_ds.count()
    cells = {r["vec_id"]: r["cell"] for r in out}
    assert set(c for c in cells.values()) <= set(range(8))
    again = ann.kmeans_assign(emb_ds.repartition(7), n_cells=8).take_all()
    assert cells == {r["vec_id"]: r["cell"] for r in again}
    # spot-check argmax against the trainer's centroids
    cents = ann.train_centroids(emb_ds, 8)
    rows = emb_ds.take(20)
    for r in rows:
        v = np.asarray(r["embedding"], dtype=np.float64)
        v /= np.linalg.norm(v)
        assert cells[r["vec_id"]] == int(np.argmax(cents @ v))


def test_index_build_coalesces_tiny_blocks(emb_ds, tmp_path):
    """A many-tiny-block input must not explode the hive write into one
    file per (block x cell): coalesce_by_bytes sizes write blocks by
    data bytes, so a small corpus yields ~one file per non-empty cell."""
    import ray

    rows = emb_ds.take(1)
    q = np.array(rows[0]["embedding"], dtype=np.float64)
    shattered = emb_ds.repartition(40)
    idx = str(tmp_path / "ivf_shard_idx")
    ann.ivf_topk(shattered, q, k=5, n_cells=8, n_probe=4, index_dir=idx)
    files = list((tmp_path / "ivf_shard_idx").rglob("*.parquet"))
    cells = list((tmp_path / "ivf_shard_idx").glob("cell=*"))
    assert len(files) <= len(cells) + 2  # ~1 file/cell, not 40*cells


def test_coalesce_by_bytes_leaves_right_sized_alone(ray_session):
    import ray

    from deepwebharvester_ray.functions.partition import coalesce_by_bytes

    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(range(1000), pa.int64())})
    ).repartition(2)
    out = coalesce_by_bytes(ds, target_bytes=1)  # want >= have: no-op
    assert out.materialize().num_blocks() == 2


# ── pii redaction / repetition metrics / contamination ───────────────────────


def test_pii_redact_batch():
    b = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "mail a.b@x.co then ping 10.0.0.1 ok",
            "no pii here at all",
            "two ips 1.2.3.4 5.6.7.8 one mail z@q.org",
        ]),
    })
    out = textops.pii_redact_batch(b).to_pylist()
    assert out[0]["redacted"] == "mail <EMAIL> then ping <IP> ok"
    assert (out[0]["n_emails"], out[0]["n_ipv4"]) == (1, 1)
    assert out[1]["redacted"] == "no pii here at all"
    assert (out[2]["n_emails"], out[2]["n_ipv4"]) == (1, 2)
    assert "1.2.3.4" not in out[2]["redacted"]


def test_clean_text_batch():
    """NFC composition (incl. pyarrow's missing-composition gap), control
    stripping, whitespace collapse, trim, char counts, null passthrough,
    pure-ASCII fast path."""
    from deepwebharvester_ray.functions.textops import clean_text_batch

    batch = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["  a\t\tb \x01\x02 c\r\n", "e\u0301tude", None, "plain"],
    })
    out = clean_text_batch(batch)
    assert out.column("clean").to_pylist() == ["a b c", "étude", None, "plain"]
    # composed NFC, not the decomposed input
    assert [hex(ord(c)) for c in out.column("clean")[1].as_py()[:1]] == ["0xe9"]
    assert out.column("n_chars_before").to_pylist() == [13, 6, None, 5]
    assert out.column("n_chars_after").to_pylist() == [5, 5, None, 5]


def test_repetition_batch_rules():
    b = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            # distinct-heavy, no repeated 2-gram → keep
            " ".join(f"w{i}" for i in range(20)),
            # "go go" 2-gram dominates → rejected by the 2-gram rule
            "go go go go go go " + " ".join(f"u{i}" for i in range(30)),
            # only 2 distinct words in 10 → rejected by the dup-word rule
            "a b a b a b a b a b",
        ]),
    })
    out = textops.repetition_batch(b).to_pylist()
    assert [r["keep"] for r in out] == [True, False, False]
    assert out[1]["max_2gram_n"] == 5
    assert out[2]["n_distinct"] == 2


def test_compressibility_ordering_and_determinism():
    rep = "spam spam spam " * 200
    import random

    rng = random.Random(7)
    rand = " ".join(
        "".join(chr(rng.randrange(97, 123)) for _ in range(8))
        for _ in range(400))
    b = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([rep, rand, ""]),
    })
    out = textops.compressibility_batch(b).to_pylist()
    by_id = {r["doc_id"]: r for r in out}
    # repetitive text compresses far better than random text
    assert by_id[1]["comp_pct"] < by_id[2]["comp_pct"]
    # empty text → pct pinned at 100, zero bytes
    assert by_id[3]["n_bytes"] == 0 and by_id[3]["comp_pct"] == 100
    # batch-boundary independence + determinism: same rows, split batches
    parts = [textops.compressibility_batch(b.slice(i, 1)).to_pylist()[0]
             for i in range(3)]
    assert parts == out
    # text column dropped, metadata kept
    assert set(out[0].keys()) == {"doc_id", "n_bytes", "n_compressed",
                                  "comp_pct"}


def test_contaminated_ids_finds_shared_windows(ray_session):
    import ray

    shared = " ".join(f"s{i}" for i in range(8))  # one 8-token window
    corpus = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            shared + " tail one",                      # contaminated
            " ".join(f"c{i}" for i in range(12)),      # clean
            "pad " + shared,                            # contaminated
        ]),
    }))
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array(["head " + shared + " more words here"]),
    }))
    hits = dedup.contaminated_ids(corpus, bench, k=8).take_all()
    assert sorted(r["doc_id"] for r in hits) == [1, 3]


def test_contaminated_ids_empty_bench(ray_session):
    import ray

    corpus = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array([" ".join(f"x{i}" for i in range(10))]),
    }))
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    assert dedup.contaminated_ids(corpus, bench, k=8).take_all() == []


def test_interval_join_semantics(ray_session):
    import datetime as dt

    import ray

    from deepwebharvester_ray.functions.interval import interval_join

    t0 = dt.datetime(2024, 1, 1)

    def ts(h):
        return t0 + dt.timedelta(hours=h)

    left = ray.data.from_items([
        {"eid": 1, "k": 1, "ts": ts(5)},    # inside [0,10) and [5,30)
        {"eid": 2, "k": 1, "ts": ts(10)},   # end-exclusive: NOT in [0,10)
        {"eid": 3, "k": 1, "ts": ts(0)},    # start-inclusive: in [0,10)
        {"eid": 4, "k": 2, "ts": ts(5)},    # other key, no window
        {"eid": 5, "k": None, "ts": ts(5)},  # null key dropped
        {"eid": 6, "k": 1, "ts": ts(50)},   # spans-3-buckets window [30,80)
    ])
    right = ray.data.from_items([
        {"vid": 10, "k": 1, "s": ts(0), "e": ts(10)},
        {"vid": 11, "k": 1, "s": ts(5), "e": ts(30)},
        {"vid": 12, "k": 1, "s": ts(30), "e": ts(80)},   # 50h > bucket
        {"vid": 13, "k": 2, "s": ts(7), "e": ts(7)},     # degenerate
        {"vid": 14, "k": None, "s": ts(0), "e": ts(99)},  # null key
    ])
    out = interval_join(
        left, right, key="k", ts="ts", start="s", end="e",
        left_cols=["eid"], right_cols=["vid"],
    ).take_all()
    pairs = sorted((r["eid"], r["vid"]) for r in out)
    assert pairs == [(1, 10), (1, 11), (2, 11), (3, 10), (6, 12)]
    by = {(r["eid"], r["vid"]): r for r in out}
    r = by[(6, 12)]
    assert r["ts"] == ts(50) and r["s"] == ts(30) and r["e"] == ts(80)


def test_interval_join_matches_bruteforce(ray_session):
    import datetime as dt

    import pandas as pd
    import ray

    from deepwebharvester_ray.functions.interval import interval_join

    rng = np.random.default_rng(7)
    t0 = dt.datetime(2024, 1, 1)
    n_l, n_r, n_keys = 800, 300, 25
    lk = rng.integers(0, n_keys, n_l)
    rk = rng.integers(0, n_keys, n_r)
    lts = rng.integers(0, 3_000_000, n_l)          # seconds, ~35 days
    rs = rng.integers(0, 3_000_000, n_r)
    rd = rng.integers(1, 1_200_000, n_r)           # up to ~14 days
    left = pd.DataFrame({
        "eid": np.arange(n_l), "k": lk,
        "ts": [t0 + dt.timedelta(seconds=int(s)) for s in lts],
    })
    right = pd.DataFrame({
        "vid": np.arange(n_r), "k": rk,
        "s": [t0 + dt.timedelta(seconds=int(s)) for s in rs],
        "e": [t0 + dt.timedelta(seconds=int(s + d))
              for s, d in zip(rs, rd)],
    })
    mine = sorted(
        (r["eid"], r["vid"])
        for r in interval_join(
            ray.data.from_pandas(left).repartition(16),
            ray.data.from_pandas(right).repartition(16),
            key="k", ts="ts", start="s", end="e",
            left_cols=["eid"], right_cols=["vid"],
            shuffle_partitions=8,
        ).take_all()
    )
    ref = left.merge(right, on="k")
    ref = ref[(ref["ts"] >= ref["s"]) & (ref["ts"] < ref["e"])]
    assert mine == sorted(zip(ref["eid"], ref["vid"]))
    assert len(mine) > 1000  # non-trivial fan-out actually exercised


def test_ordered_deltas_matches_bruteforce(ray_session):
    import pandas as pd
    import ray

    from deepwebharvester_ray.functions.window import ordered_deltas

    rng = np.random.default_rng(11)
    n, n_keys = 2000, 40
    df = pd.DataFrame({
        "rid": np.arange(n),
        "k": rng.integers(0, n_keys, n),
        "o": rng.integers(0, 10_000, n),     # order col (ties broken by rid)
        "v": rng.integers(-500, 500, n),
    })
    out = ordered_deltas(
        ray.data.from_pandas(df).repartition(16),
        key="k", order_cols=["o", "rid"], value_col="v",
        out_delta="d", out_running="r",
    ).to_pandas().sort_values("rid").reset_index(drop=True)

    ref = df.sort_values(["k", "o", "rid"]).copy()
    grp = ref.groupby("k")["v"]
    ref["d"] = (ref["v"] - grp.shift(1)).fillna(0).astype(np.int64)
    ref["r"] = grp.cumsum()
    ref = ref.sort_values("rid").reset_index(drop=True)
    assert (out["d"].to_numpy() == ref["d"].to_numpy()).all()
    assert (out["r"].to_numpy() == ref["r"].to_numpy()).all()
    # input columns preserved
    assert (out["v"].to_numpy() == ref["v"].to_numpy()).all()


def test_ordered_deltas_single_and_empty(ray_session):
    import ray

    from deepwebharvester_ray.functions.window import ordered_deltas

    one = ordered_deltas(
        ray.data.from_items([{"k": 1, "o": 5, "v": 42}]),
        key="k", order_cols=["o"], value_col="v",
    ).take_all()
    assert one == [{"k": 1, "o": 5, "v": 42, "delta": 0, "running": 42}]


def test_resample_ffill_matches_bruteforce(ray_session):
    import pandas as pd
    import ray

    from deepwebharvester_ray.functions.window import resample_ffill

    rng = np.random.default_rng(23)
    n, n_keys = 3000, 50
    df = pd.DataFrame({
        "rid": np.arange(n),
        "k": rng.integers(0, n_keys, n),
        # sparse buckets with gaps; several rows share a bucket
        "b": rng.integers(0, 120, n),
        "o": rng.integers(0, 5, n),          # order col (ties → rid)
        "v": rng.integers(-500, 500, n),
    })
    out = resample_ffill(
        ray.data.from_pandas(df).repartition(16),
        key="k", bucket_col="b", order_cols=["o", "rid"], value_col="v",
        out_value="v", out_observed="obs",
    ).to_pandas().sort_values(["k", "b"]).reset_index(drop=True)

    # reference: last (o, rid) row per (k, b), dense range, ffill
    ref_rows = []
    for k, g in df.groupby("k"):
        obs = (g.sort_values(["o", "rid"]).groupby("b")["v"].last())
        lo, hi = obs.index.min(), obs.index.max()
        dense = obs.reindex(range(lo, hi + 1))
        seen = dense.notna()
        dense = dense.ffill()
        for b, v, s in zip(dense.index, dense, seen):
            ref_rows.append((k, b, int(v), bool(s)))
    ref = pd.DataFrame(ref_rows, columns=["k", "b", "v", "obs"]).sort_values(
        ["k", "b"]).reset_index(drop=True)
    assert len(out) == len(ref)
    for c in ["k", "b", "v", "obs"]:
        assert (out[c].to_numpy() == ref[c].to_numpy()).all(), c
    # gaps actually exercised: some rows are filled, not observed
    assert (~out["obs"]).sum() > 0


def test_resample_ffill_single_key_and_empty(ray_session):
    import ray

    from deepwebharvester_ray.functions.window import resample_ffill

    out = resample_ffill(
        ray.data.from_items([
            {"k": 7, "b": 10, "o": 1, "v": 5},
            {"k": 7, "b": 13, "o": 1, "v": 9},
            {"k": 7, "b": 10, "o": 2, "v": 6},   # later obs wins bucket 10
        ]),
        key="k", bucket_col="b", order_cols=["o"], value_col="v",
        out_value="v", out_observed="obs",
    ).take_all()
    assert sorted((r["b"], r["v"], r["obs"]) for r in out) == [
        (10, 6, True), (11, 6, False), (12, 6, False), (13, 9, True),
    ]


def _lev(a: str, b: str) -> int:
    """Plain DP Levenshtein (test reference only)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_edit1_pairs_matches_bruteforce(ray_session):
    import ray

    from deepwebharvester_ray.functions.fuzzy import edit1_pairs

    rng = np.random.default_rng(7)
    # small alphabet + short lengths → dense ed-1 neighborhoods with
    # substitutions, insertions, deletions AND ed-2 traps (transposes)
    alphabet = np.array(list("abc01"))
    vocab = set()
    while len(vocab) < 400:
        L = int(rng.integers(1, 6))
        vocab.add("".join(rng.choice(alphabet, L)))
    vocab = sorted(vocab)

    mine = sorted(
        (r["token_a"], r["token_b"])
        for r in edit1_pairs(
            ray.data.from_items([{"token": t} for t in vocab])
            .repartition(16),
            col="token",
        ).take_all()
    )
    ref = sorted(
        (a, b)
        for i, a in enumerate(vocab) for b in vocab[i + 1:]
        if abs(len(a) - len(b)) <= 1 and _lev(a, b) == 1
    )
    assert mine == ref
    assert len(ref) > 300  # neighborhood actually dense


def test_ed1_mask_kernel():
    from deepwebharvester_ray.functions.fuzzy import ed1_mask

    a = np.asarray(["ab", "ab", "abc", "abc", "a", "xyz", "ab"],
                   dtype=object)
    b = np.asarray(["ba", "ac", "abcd", "ac", "ab", "xyz", "abxy"],
                   dtype=object)
    got = ed1_mask(a, b).tolist()
    #       ab/ba=2  ab/ac=1  abc/abcd=1  abc/ac=1  a/ab=1  eq=0  len+2
    assert got == [False, True, True, True, True, False, False]


def test_column_profile_nulls_and_numeric_minmax(ray_session):
    import pandas as pd
    import ray

    from deepwebharvester_ray.functions.agg import column_profile

    df = pd.DataFrame({
        # 9 vs 10: a lexicographic string min would report "10" < "9"
        "a": [9, 10, 100, None, 2, 2],
        "s": ["x", None, "m", "m", None, "z"],
    })
    out = column_profile(
        ray.data.from_pandas(df).repartition(4),
        int_cols=["a"], str_cols=["s"],
    ).to_pandas().set_index("col")
    assert out.loc["a"].tolist() == [6, 1, 4, "2", "100"]
    assert out.loc["s"].tolist() == [6, 2, 3, "m", "z"]


def test_skyline2d_matches_bruteforce(ray_session):
    import ray

    from deepwebharvester_ray.functions.skyline import skyline2d

    rng = np.random.default_rng(3)
    n = 4000
    # coarse grids → many ties, including rows equal on BOTH coords
    x = rng.integers(0, 40, n).astype(np.int64)
    y = rng.integers(0, 40, n).astype(np.int64)
    ds = ray.data.from_items(
        [{"rid": int(i), "x": int(x[i]), "y": int(y[i])} for i in range(n)]
    ).repartition(16)
    mine = sorted(
        r["rid"] for r in
        skyline2d(ds, x_col="x", y_col="y",
                  keep_cols=["rid"]).take_all()
    )
    ref = [
        i for i in range(n)
        if not any(
            (x[j] <= x[i]) and (y[j] >= y[i])
            and (x[j] < x[i] or y[j] > y[i])
            for j in range(n)
        )
    ]
    assert mine == ref
    # both-coordinate duplicates survive together
    xs = {(int(x[i]), int(y[i])) for i in ref}
    assert any(
        sum(1 for i in ref if (x[i], y[i]) == p) > 1 for p in xs
    ) or len(ref) > 0


def test_skyline2d_anticorrelated_identity(ray_session):
    """Anti-correlated staircase: EVERY point is on the frontier."""
    import ray

    from deepwebharvester_ray.functions.skyline import skyline2d

    # trade-off staircase for (min x, max y): larger x buys larger y,
    # so nothing dominates anything
    pts = [{"x": i, "y": i} for i in range(50)]
    out = skyline2d(
        ray.data.from_items(pts).repartition(8), x_col="x", y_col="y"
    ).take_all()
    assert sorted((r["x"], r["y"]) for r in out) == \
        sorted((p["x"], p["y"]) for p in pts)


def _pagerank_ref(edges, n, iters=5, scale=10**12):
    """Driver-side integer PageRank reference (same arithmetic)."""
    outdeg = np.zeros(n, np.int64)
    for s, _ in edges:
        outdeg[s] += 1
    score = np.full(n, scale // n, np.int64)
    for _ in range(iters):
        csum = np.zeros(n, np.int64)
        for s, d in edges:
            csum[d] += score[s] // outdeg[s]
        score = (15 * (scale // n) + 85 * csum) // 100
    return score


def test_pagerank_matches_reference_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import pagerank

    rng = np.random.default_rng(3)
    n = 60
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 300), rng.integers(0, n, 300))]
    # a few zero-outdegree (dangling) and zero-indegree nodes stay valid:
    # node n-1 never appears as src
    edges = [(s, d) for s, d in edges if s != n - 1]
    ref = _pagerank_ref(edges, n)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(8)
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])

    # (broadcast_below, local_cutoff): one-task local power iteration
    # (default gate), distributed broadcast rounds, forced join rounds
    for bb, lc in ((2_000_000, 2_000_000), (2_000_000, 0), (0, 0)):
        out = pagerank(edges_ds, nodes_ds, iters=5, broadcast_below=bb,
                       local_cutoff=lc).take_all()
        got = {r["id"]: r["score"] for r in out}
        assert len(got) == n
        assert all(got[i] == ref[i] for i in range(n)), f"bb={bb} lc={lc}"


def test_knn_graph_multiblock_exact(ray_session):
    import ray

    from deepwebharvester_ray.functions.ann import knn_graph

    rng = np.random.default_rng(5)
    n, d, k = 80, 12, 3
    vecs = rng.standard_normal((n, d))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].astype(np.float32).tolist()}
         for i in range(n)]
    ).repartition(7)  # force many block pairs
    out = knn_graph(ds, k=k, target_block_bytes=1).take_all()

    # in-process reference: full normalized matmul, (sim DESC, id ASC)
    m = vecs.astype(np.float32).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    np.fill_diagonal(sims, -np.inf)
    ref = {}
    for i in range(n):
        order = sorted(range(n), key=lambda j: (-sims[i, j], j))[:k]
        ref[i] = [(r + 1, j) for r, j in enumerate(order)]
    got = {}
    for r in out:
        got.setdefault(r["vec_id"], []).append((r["rank"], r["nbr_id"]))
    assert len(got) == n
    assert all(sorted(got[i]) == ref[i] for i in range(n))


def _hits_ref(edges, n, iters=2, scale=10**9):
    """Driver-side integer HITS reference (same arithmetic)."""
    hub = np.full(n, scale // n, dtype=object)
    auth = hub.copy()
    for _ in range(iters):
        raw = np.zeros(n, dtype=object)
        for s, d in edges:
            raw[d] += hub[s]
        tot = raw.sum()
        auth = np.array([r * scale // tot for r in raw], dtype=object)
        raw = np.zeros(n, dtype=object)
        for s, d in edges:
            raw[s] += auth[d]
        tot = raw.sum()
        hub = np.array([r * scale // tot for r in raw], dtype=object)
    return hub, auth


def test_hits_matches_reference_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import hits

    rng = np.random.default_rng(11)
    n = 50
    edges = sorted({(int(s), int(d)) for s, d in
                    zip(rng.integers(0, n, 260), rng.integers(0, n, 260))
                    if s != d})
    ref_hub, ref_auth = _hits_ref(edges, n)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(8)
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])

    for bb in (2_000_000, 0):   # broadcast path, then forced join path
        out = hits(edges_ds, nodes_ds, iters=2, broadcast_below=bb
                   ).take_all()
        got = {r["doc_id"]: (r["hub"], r["auth"]) for r in out}
        assert len(got) == n, f"path bb={bb}"
        assert all(got[i] == (ref_hub[i], ref_auth[i])
                   for i in range(n)), f"path bb={bb}"


def test_hits_no_edges(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import hits

    nodes_ds = ray.data.from_items([{"id": i} for i in range(4)])
    edges_ds = ray.data.from_arrow(pa.table(
        {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
    ))
    out = hits(edges_ds, nodes_ds, iters=2).take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 1, 2, 3]
    assert all(r["hub"] == 0 and r["auth"] == 0 for r in out)


def test_pagerank_no_edges(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import pagerank

    nodes_ds = ray.data.from_items([{"id": i} for i in range(4)])
    import pyarrow as pa_

    edges_ds = ray.data.from_arrow(pa_.table(
        {"src": pa_.array([], pa_.int64()), "dst": pa_.array([], pa_.int64())}
    ))
    out = pagerank(edges_ds, nodes_ds, iters=3, scale=1000).take_all()
    assert sorted(r["id"] for r in out) == [0, 1, 2, 3]
    assert all(r["score"] == (15 * (1000 // 4)) // 100 for r in out)


def test_bloom_no_false_negatives_and_low_fp(ray_session):
    import ray

    from deepwebharvester_ray.functions.bloom import bloom_build, bloom_probe

    rng = np.random.default_rng(5)
    members = rng.integers(0, 1 << 62, 5000, dtype=np.int64)
    others = rng.integers(0, 1 << 62, 20000, dtype=np.int64)
    others = np.setdiff1d(others, members)
    ds = ray.data.from_arrow(pa.table({"h": pa.array(members, pa.int64())}))
    words = bloom_build(ds.repartition(8), "h", n_bits=1 << 16, k=7)
    # every member probes positive (the Bloom contract: no false negatives)
    assert bloom_probe(words, members.view(np.uint64)).all()
    # ~10 bits/key, k=7 → false-positive rate ≈ 1%; allow 3%
    fp = bloom_probe(words, others.view(np.uint64)).mean()
    assert fp < 0.03, fp


def test_bloom_partial_merge_is_build(ray_session):
    import ray

    from deepwebharvester_ray.functions.bloom import bloom_build

    keys = np.arange(1000, dtype=np.int64) * 7919
    ds = ray.data.from_arrow(pa.table({"h": pa.array(keys, pa.int64())}))
    # OR-merge of per-block partials must equal a single-block build
    one = bloom_build(ds.repartition(1), "h", n_bits=1 << 14)
    many = bloom_build(ds.repartition(13), "h", n_bits=1 << 14)
    assert (one == many).all()


def test_tree_merge_blobs_levels_and_fanin(ray_session):
    """tree_merge_blobs: many-block reduction is bit-identical to a
    sequential fold, works through multiple tree levels (70 blobs at
    fanin 4 → 3 levels), no merge call ever sees more than fanin
    blobs, and the empty input returns None."""
    import ray

    from deepwebharvester_ray.functions.partition import tree_merge_blobs

    n = 70
    blobs = [np.full(64, i + 1, np.int64).tobytes() for i in range(n)]
    parts = ray.data.from_arrow(
        pa.table({"m": pa.array(blobs, pa.large_binary())})).repartition(n)

    fanin = 4

    def merge(bs):
        assert len(bs) <= fanin, len(bs)
        acc = np.frombuffer(bs[0], np.int64).copy()
        for b in bs[1:]:
            acc += np.frombuffer(b, np.int64)
        return acc.tobytes()

    out = np.frombuffer(
        tree_merge_blobs(parts, "m", merge, fanin=fanin), np.int64)
    assert (out == n * (n + 1) // 2).all()

    empty = ray.data.from_arrow(
        pa.table({"m": pa.array([], pa.large_binary())}))
    assert tree_merge_blobs(empty, "m", merge, fanin=fanin) is None


def test_bloom_cms_many_block_invariance(ray_session):
    """VERDICT r03 item 3: the tree-merged bloom/CMS builds stay
    bit-identical across a 2-block and a 40-block reshard (40 blocks →
    multiple tree levels at the default fanin 8)."""
    import ray

    from deepwebharvester_ray.functions.bloom import bloom_build
    from deepwebharvester_ray.functions.sketch import cms_build

    keys = np.arange(3000, dtype=np.int64) * 6271
    ds = ray.data.from_arrow(pa.table({"h": pa.array(keys, pa.int64())}))
    few = bloom_build(ds.repartition(2), "h", n_bits=1 << 14)
    many = bloom_build(ds.repartition(40), "h", n_bits=1 << 14)
    assert (few == many).all()

    toks = [f"t{i % 97}" for i in range(5000)]
    tds = ray.data.from_arrow(pa.table({"t": pa.array(toks, pa.string())}))
    m_few = cms_build(tds.repartition(2), "t", width=1 << 10)
    m_many = cms_build(tds.repartition(40), "t", width=1 << 10)
    assert (m_few == m_many).all()


def test_grouped_hll_error_bound(ray_session):
    import ray

    from deepwebharvester_ray.functions.sketch import grouped_hll_distinct

    rng = np.random.default_rng(9)
    keys = rng.choice(["a", "b", "c"], 30000)
    # distinct-value pools of very different sizes per key
    vals = np.where(
        keys == "a", rng.integers(0, 200, 30000),
        np.where(keys == "b", rng.integers(0, 5000, 30000),
                 rng.integers(0, 40000, 30000)),
    )
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys.tolist(), pa.string()),
        "v": pa.array([str(v) for v in vals], pa.string()),
    })).repartition(16)
    out = {r["k"]: r["n_users_est"]
           for r in grouped_hll_distinct(ds, "k", "v",
                                         label="n_users_est").take_all()}
    import pandas as pd

    exact = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"].nunique()
    assert set(out) == {"a", "b", "c"}
    for k in out:
        assert abs(out[k] - exact[k]) / exact[k] < 0.05, (k, out[k], exact[k])


def test_cms_bounds_and_merge_invariance(ray_session):
    import ray

    from deepwebharvester_ray.functions.sketch import (
        CMS_DEPTH, cms_build, cms_estimate,
    )

    rng = np.random.default_rng(13)
    # zipf-ish: token i appears ~ 3000/(i+1) times
    toks = []
    for i in range(200):
        toks.extend([f"tok{i}"] * (3000 // (i + 1)))
    rng.shuffle(toks)
    ds = ray.data.from_arrow(pa.table({"t": pa.array(toks, pa.string())}))
    width = 1 << 12
    m1 = cms_build(ds.repartition(1), "t", width=width)
    m2 = cms_build(ds.repartition(11), "t", width=width)
    assert (m1 == m2).all()          # sum-merge invariant to blocking
    probe = [f"tok{i}" for i in range(0, 50)]
    true = np.array([3000 // (i + 1) for i in range(0, 50)], np.int64)
    est = cms_estimate(m1, probe)
    assert (est >= true).all()       # CMS never underestimates
    n_total = len(toks)
    assert (est - true <= np.e / width * n_total * 3).all()


def test_semi_join_ids_paths_agree(ray_session):
    import ray

    from deepwebharvester_ray.functions.dedup import semi_join_ids

    rng = np.random.default_rng(21)
    ids = rng.permutation(2000)[:1500]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "payload": pa.array(ids * 3, pa.int64()),
    })).repartition(8)
    # keep-set with duplicates: the semi-join must NOT duplicate rows
    keep = ray.data.from_arrow(pa.table({
        "kid": pa.array(np.concatenate([np.arange(0, 700, 2)] * 3),
                        pa.int64()),
    })).repartition(5)
    expect = sorted(i for i in ids if i < 700 and i % 2 == 0)
    for cutoff in (10**9, 0):   # broadcast path, forced join path
        out = semi_join_ids(ds, keep, id_column="doc_id",
                            keep_column="kid",
                            broadcast_cutoff=cutoff).take_all()
        got = sorted(r["doc_id"] for r in out)
        assert got == expect, f"cutoff={cutoff}"
        assert all(r["payload"] == r["doc_id"] * 3 for r in out)


def test_dd_quantiles_relative_error(ray_session):
    import ray

    from deepwebharvester_ray.functions.sketch import dd_quantiles

    rng = np.random.default_rng(17)
    vals = np.exp(rng.normal(3.0, 2.0, 50_000))   # heavy-tailed positives
    ds = ray.data.from_arrow(
        pa.table({"v": pa.array(vals, pa.float64())})
    ).repartition(16)
    ps = [0.1, 0.5, 0.9, 0.99]
    out = dd_quantiles(ds, "v", ps, alpha=0.01).to_pylist()[0]
    for p in ps:
        exact = np.quantile(vals, p)
        got = out[f"q_{p}"]
        # DDSketch guarantee: relative error <= alpha (2% slack for the
        # rank-vs-value interpolation at block boundaries)
        assert abs(got - exact) / exact < 0.02, (p, got, exact)


def test_dd_quantiles_mixed_signs_and_empty(ray_session):
    import ray

    from deepwebharvester_ray.functions.sketch import dd_quantiles

    vals = np.array([-100.0, -1.0, 0.0, 1.0, 100.0])
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.float64())}))
    out = dd_quantiles(ds, "v", [0.5], alpha=0.01).to_pylist()[0]
    assert abs(out["q_0.5"]) < 0.01  # median is the zero bucket


def test_skew_join_matches_plain_join():
    """Hot keys routed map-side must produce exactly the plain inner-join
    result — tested with a planted 40%-share hot key, with no hot keys
    (pure native path), and with unmatched fact keys (inner semantics)."""
    import ray

    from deepwebharvester_ray.functions.partition import skew_join

    rng = np.random.default_rng(5)
    keys = np.where(rng.random(2000) < 0.4, 7,
                    rng.integers(0, 50, 2000)).astype(np.int64)
    keys[:10] = 999  # unmatched in the dimension → dropped (inner)
    fact = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(np.arange(2000, dtype=np.int64)),
    }))
    dim = ray.data.from_arrow(pa.table({
        "dk": pa.array(np.arange(50, dtype=np.int64)),
        "name": pa.array([f"d{i}" for i in range(50)], pa.string()),
    }))

    def expected():
        names = {i: f"d{i}" for i in range(50)}
        return sorted((int(k), int(v), names[int(k)])
                      for k, v in zip(keys, np.arange(2000))
                      if int(k) in names)

    got = skew_join(fact, dim, "k", "dk", hot_fraction=0.05).take_all()
    assert sorted((r["k"], r["v"], r["name"]) for r in got) == expected()
    # hot_fraction=1.0 → nothing hot → pure cold path, same rows —
    # forced on BOTH cold strategies (auto picks merge at this size;
    # "hash" keeps the native hash-shuffle path pinned)
    for strategy in ("merge", "hash"):
        cold_only = skew_join(fact, dim, "k", "dk", hot_fraction=1.0,
                              cold_strategy=strategy).take_all()
        assert sorted((r["k"], r["v"], r["name"])
                      for r in cold_only) == expected(), strategy


def test_skew_join_rejects_duplicate_dimension():
    import ray

    from deepwebharvester_ray.functions.partition import skew_join

    fact = ray.data.from_arrow(pa.table({
        "k": pa.array([1] * 100, pa.int64()),
        "v": pa.array(range(100), type=pa.int64()),
    }))
    dim = ray.data.from_arrow(pa.table({
        "dk": pa.array([1, 1], pa.int64()),
        "name": pa.array(["a", "b"], pa.string()),
    }))
    with pytest.raises(AssertionError, match="not unique"):
        skew_join(fact, dim, "k", "dk", hot_fraction=0.05).take_all()


def test_skew_join_hot_key_missing_from_dimension():
    """A hot fact key with NO dimension row must not crash the broadcast
    path — inner semantics just drop it (falls through to the plain
    join when no hot key matches the dimension)."""
    import ray

    from deepwebharvester_ray.functions.partition import skew_join

    fact = ray.data.from_arrow(pa.table({
        "k": pa.array([999] * 80 + [1, 2] * 10, pa.int64()),
        "v": pa.array(range(100), type=pa.int64()),
    }))
    dim = ray.data.from_arrow(pa.table({
        "dk": pa.array([1, 2], pa.int64()),
        "name": pa.array(["a", "b"], pa.string()),
    }))
    out = skew_join(fact, dim, "k", "dk", hot_fraction=0.05).take_all()
    assert len(out) == 20                      # 999-rows dropped
    assert {r["k"] for r in out} == {1, 2}


def test_pq_topk_recall_and_determinism(emb_ds):
    """PQ-ADC shortlist + exact re-rank: decent recall on random 64-dim
    vectors (PQ's worst case — no subspace structure), deterministic,
    and re-ranked recall must dominate the raw compressed scan."""
    rows = emb_ds.take(3)
    q = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    exact = ann.brute_topk(emb_ds, q, k=10).to_pandas()
    pq = ann.pq_topk(emb_ds, q, k=10).to_pandas()
    raw = ann.pq_topk(emb_ds, q, k=10, rerank_factor=1).to_pandas()
    rec_rr, rec_raw = [], []
    for qi in range(3):
        e = set(exact.query(f"query_idx=={qi}")["id"])
        rec_rr.append(len(e & set(pq.query(f"query_idx=={qi}")["id"])) / 10)
        rec_raw.append(len(e & set(raw.query(f"query_idx=={qi}")["id"])) / 10)
        # self must survive the shortlist and re-rank to rank 1
        assert pq.query(f"query_idx=={qi}").iloc[0]["id"] == rows[qi]["vec_id"]
    assert sum(rec_rr) / 3 >= 0.5
    assert sum(rec_rr) >= sum(rec_raw)
    again = ann.pq_topk(emb_ds, q, k=10).to_pandas()
    assert pq.equals(again)


def test_pq_topk_rejects_indivisible_dim(emb_ds):
    rows = emb_ds.take(1)
    q = np.asarray(rows[0]["embedding"], dtype=np.float64)
    with pytest.raises(ValueError, match="not divisible"):
        ann.pq_topk(emb_ds, q, k=5, m_subspaces=7)


def test_pq_encode_compression(emb_ds):
    """The PQ code table — the persistable scan index — must actually be
    small: ≥10× fewer bytes than the (id, embedding) projection it
    replaces (64-dim float32 → 8 one-byte codes is 32× on the vector
    payload alone)."""
    import ray

    raw = emb_ds.select_columns(["vec_id", "embedding"]).materialize()
    sample = np.asarray(
        [r["embedding"] for r in emb_ds.take(256)], dtype=np.float64)
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    books = ann.train_pq_codebooks(sample, 8, 64)
    codes = ann.pq_encode(emb_ds, books).materialize()
    assert codes.count() == raw.count()
    assert raw.size_bytes() / codes.size_bytes() >= 10


def test_ivfpq_topk_recall_and_full_probe_equivalence(emb_ds):
    """IVF-PQ: decent recall at n_probe=4/16 with self always surviving
    to rank 1; probing EVERY cell must degenerate to exactly the plain
    PQ result (same sample, same codebooks, same re-rank)."""
    rows = emb_ds.take(3)
    q = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    exact = ann.brute_topk(emb_ds, q, k=10).to_pandas()
    ivfpq = ann.ivfpq_topk(emb_ds, q, k=10).to_pandas()
    recs = []
    for qi in range(3):
        e = set(exact.query(f"query_idx=={qi}")["id"])
        p = ivfpq.query(f"query_idx=={qi}")
        recs.append(len(e & set(p["id"])) / 10)
        assert p.iloc[0]["id"] == rows[qi]["vec_id"]
    assert sum(recs) / 3 >= 0.4
    full = ann.ivfpq_topk(emb_ds, q, k=10, n_cells=16, n_probe=16).to_pandas()
    plain = ann.pq_topk(emb_ds, q, k=10).to_pandas()
    assert full.equals(plain)


def test_mg_prune_invariants():
    from deepwebharvester_ray.functions.sketch import mg_prune

    toks = np.asarray([f"t{i}" for i in range(100)], dtype=object)
    cnts = np.arange(1, 101, dtype=np.int64)
    out_t, out_c, dec = mg_prune(toks, cnts, 8)
    assert len(out_t) <= 8
    assert dec == 92  # the 9th-largest count
    # survivors are the largest counters, each decremented by exactly dec
    true = {f"t{i}": i + 1 for i in range(100)}
    for t, c in zip(out_t, out_c):
        assert c == true[t] - dec and c > 0
    # no-op below k
    same_t, same_c, d0 = mg_prune(toks[:5], cnts[:5], 8)
    assert d0 == 0 and (same_c == cnts[:5]).all()


def test_mg_topk_guarantees_vs_exact(ray_session):
    import ray

    from deepwebharvester_ray.functions.sketch import mg_topk

    rng = np.random.default_rng(7)
    # zipf-ish stream with a long uniform tail
    toks = []
    for i in range(40):
        toks.extend([f"hot{i}"] * (4000 // (i + 1)))
    toks.extend(f"tail{i}" for i in range(5000))
    rng.shuffle(toks)
    n_total = len(toks)
    k = 32
    ds = ray.data.from_arrow(pa.table({
        "token": pa.array(toks, pa.string())})).repartition(9)
    out = mg_topk(ds, "token", k=k)
    est = dict(zip(out.column("token").to_pylist(),
                   out.column("est_n").to_pylist()))
    err_ub = out.column("err_ub").to_pylist()[0]
    assert out.column("n_total").to_pylist()[0] == n_total
    assert out.num_rows <= k
    assert err_ub <= 2 * n_total // (k + 1) + 1  # two prune levels
    from collections import Counter

    true = Counter(toks)
    for t, e in est.items():
        assert e <= true[t] <= e + err_ub, t
    for t, c in true.items():
        if c > err_ub:
            assert t in est, f"guaranteed heavy hitter {t} missing"


def test_mg_topk_blocking_insensitive_bounds(ray_session):
    import ray

    from deepwebharvester_ray.functions.sketch import mg_topk

    toks = [f"w{i % 11}" for i in range(2200)]
    t = pa.table({"token": pa.array(toks, pa.string())})
    for parts in (1, 7):
        out = mg_topk(ray.data.from_arrow(t).repartition(parts),
                      "token", k=16)
        # 11 distinct < k: exact regardless of blocking
        assert out.num_rows == 11
        assert set(out.column("est_n").to_pylist()) == {200}
        assert out.column("err_ub").to_pylist()[0] == 0


# ── BPE tokenizer (train + distributed apply) ────────────────────────────────


def test_train_bpe_merges_hand_checked():
    from deepwebharvester_ray.functions.textops import train_bpe_merges

    # counts: "low"*7 "lower"*5 "lowest"*3 → (o,w)=15 wins round 1,
    # (l,ow)=15 round 2, then low+e (8) beats e+r (5) and e+s/s+t (3)
    m = train_bpe_merges([("lower", 5), ("lowest", 3), ("low", 7)], 4)
    assert m[:3] == [("o", "w"), ("l", "ow"), ("low", "e")]


def test_bpe_encode_word_lowest_rank_first():
    from deepwebharvester_ray.functions.textops import bpe_encode_word

    ranks = {("o", "w"): 0, ("l", "ow"): 1, ("low", "e"): 2}
    assert bpe_encode_word("low", ranks) == 1       # l o w → l ow → low
    assert bpe_encode_word("lowest", ranks) == 3    # lowe s t
    assert bpe_encode_word("xyz", ranks) == 3       # no merge applies
    assert bpe_encode_word("a", ranks) == 1


def test_bpe_stage_matches_reference_and_memo(ray_session):
    import ray

    from deepwebharvester_ray.functions.textops import (
        WORD_RE,
        bpe_encode_counts,
        bpe_encode_word,
        train_bpe_merges,
    )

    texts = ["the lowest lower low", "low low lower", "", "zzz qqq the"]
    from collections import Counter

    wc = Counter()
    for t in texts:
        wc.update(WORD_RE.findall(t.lower()))
    merges = train_bpe_merges(sorted(wc.items()), 10)
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    want = [sum(bpe_encode_word(w, ranks)
                for w in WORD_RE.findall(t.lower())) for t in texts]

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    out = bpe_encode_counts(ds, merges).to_pandas().sort_values(
        "doc_id")
    assert out["n_bpe_tokens"].tolist() == want


# ── weighted sampling (Efraimidis–Spirakis) ──────────────────────────────────


def test_weighted_sample_exact_size_and_determinism(ray_session):
    import ray

    from deepwebharvester_ray.functions.sampling import weighted_sample_k

    t = pa.table({
        "doc_id": pa.array(range(500), pa.int64()),
        "w": pa.array(np.arange(1, 501, dtype=np.int64), pa.int64()),
    })
    picks = []
    for parts in (1, 7, 13):
        ds = ray.data.from_arrow(t).repartition(parts)
        out = weighted_sample_k(ds, k=40, id_column="doc_id",
                                weight_column="w").to_pandas()
        assert len(out) == 40
        assert list(out.columns) == ["doc_id", "w"]
        picks.append(tuple(sorted(out["doc_id"].tolist())))
    assert picks[0] == picks[1] == picks[2]  # reshard-stable


def test_weighted_sample_zero_weight_excluded_and_small_n(ray_session):
    import ray

    from deepwebharvester_ray.functions.sampling import weighted_sample_k

    t = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "w": pa.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], pa.int64()),
    })
    out = weighted_sample_k(ray.data.from_arrow(t), k=40,
                            id_column="doc_id",
                            weight_column="w").to_pandas()
    # only the 5 positive-weight rows qualify
    assert sorted(out["doc_id"].tolist()) == [5, 6, 7, 8, 9]


def test_weighted_sample_inclusion_bias(ray_session):
    """Across 60 seeds, an item with 50× the weight of the uniform tail
    is selected far more often — the ES inclusion-probability
    property, tested statistically with a wide margin."""
    import ray

    from deepwebharvester_ray.functions.sampling import weighted_sample_k

    w = np.ones(200, np.int64)
    w[7] = 50
    t = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "w": pa.array(w, pa.int64())})
    ds = ray.data.from_arrow(t)
    heavy, uniform = 0, 0
    for seed in range(60):
        got = set(weighted_sample_k(
            ds, k=20, id_column="doc_id", weight_column="w",
            seed=seed).to_pandas()["doc_id"])
        heavy += 7 in got
        uniform += 11 in got
    # heavy item: P(inclusion) ≈ 1; uniform item ≈ 0.1
    assert heavy >= 55
    assert uniform <= 20


def _bfs_ref(edges, seeds, max_depth):
    """Driver-side BFS reference: {id: min hop dist <= max_depth}."""
    from collections import defaultdict, deque

    adj = defaultdict(list)
    for s, d in edges:
        adj[s].append(d)
    dist = {s: 0 for s in seeds}
    q = deque(seeds)
    while q:
        u = q.popleft()
        if dist[u] >= max_depth:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_bfs_distances_matches_reference_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import bfs_distances

    rng = np.random.default_rng(11)
    n = 80
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 200), rng.integers(0, n, 200))]
    seeds = [0, 37]
    ref = _bfs_ref(edges, seeds, max_depth=4)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(8).materialize()
    seeds_ds = ray.data.from_items([{"id": s} for s in seeds])

    # (broadcast_below, local_cutoff): one-task local CSR BFS (default
    # gate), distributed broadcast rounds, forced join rounds
    for bb, lc in ((2_000_000, 2_000_000), (2_000_000, 0), (0, 0)):
        out = bfs_distances(edges_ds, seeds_ds, max_depth=4,
                            broadcast_below=bb,
                            local_cutoff=lc).take_all()
        got = {r["id"]: r["dist"] for r in out}
        assert got == ref, f"bb={bb} lc={lc}"


def test_bfs_distances_empty_frontier_short_circuit(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import bfs_distances

    # an isolated seed: frontier empties after round 1 long before
    # max_depth; result is just the seed at distance 0
    edges_ds = ray.data.from_items([{"src": 5, "dst": 6}]).materialize()
    seeds_ds = ray.data.from_items([{"id": 99}])
    out = bfs_distances(edges_ds, seeds_ds, max_depth=50).take_all()
    assert {r["id"]: r["dist"] for r in out} == {99: 0}


def test_bfs_distances_empty_edges_join_path(ray_session):
    """A 0-row edge table through the FORCED join path must return the
    seeds at distance 0, not crash on coalesce_nonempty() -> None."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import bfs_distances

    edges_ds = ray.data.from_arrow(pa.table({
        "src": pa.array([], pa.int64()),
        "dst": pa.array([], pa.int64()),
    })).materialize()
    seeds_ds = ray.data.from_items([{"id": 3}, {"id": 8}])
    out = bfs_distances(edges_ds, seeds_ds, max_depth=3,
                        broadcast_below=0).take_all()
    assert {r["id"]: r["dist"] for r in out} == {3: 0, 8: 0}


def _weighted_ref(edges, seeds, rounds):
    """Bounded Bellman-Ford reference: min cost over ≤rounds-edge paths."""
    dist = {s: 0 for s in seeds}
    for _ in range(rounds):
        nxt = dict(dist)
        for s, d, w in edges:
            if s in dist and dist[s] + w < nxt.get(d, float("inf")):
                nxt[d] = dist[s] + w
        dist = nxt
    return dist


def test_weighted_distances_matches_reference_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import weighted_distances

    rng = np.random.default_rng(13)
    n = 70
    edges = [(int(s), int(d), int(w)) for s, d, w in
             zip(rng.integers(0, n, 250), rng.integers(0, n, 250),
                 rng.integers(1, 12, 250))]
    seeds = [0, 29]
    ref = _weighted_ref(edges, seeds, rounds=4)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d, "w": w} for s, d, w in edges]
    ).repartition(8).materialize()
    seeds_ds = ray.data.from_items([{"id": s} for s in seeds])

    # local relaxation gate (default), broadcast rounds, forced join
    for bb, lc in ((2_000_000, 2_000_000), (2_000_000, 0), (0, 0)):
        out = weighted_distances(edges_ds, seeds_ds, rounds=4,
                                 broadcast_below=bb,
                                 local_cutoff=lc).take_all()
        got = {r["id"]: r["cost"] for r in out}
        assert got == ref, f"bb={bb} lc={lc}"


def test_weighted_distances_all_unit_weights_equals_bfs(ray_session):
    """w ≡ 1 must reproduce hop distances (the bfs_distances contract)."""
    import ray

    from deepwebharvester_ray.functions.graph import (bfs_distances,
                                                      weighted_distances)

    rng = np.random.default_rng(7)
    n = 50
    pairs = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 160), rng.integers(0, n, 160))]
    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d, "w": 1} for s, d in pairs]
    ).repartition(6).materialize()
    seeds_ds = ray.data.from_items([{"id": 1}])

    wd = {r["id"]: r["cost"] for r in weighted_distances(
        edges_ds, seeds_ds, rounds=4).take_all()}
    bd = {r["id"]: r["dist"] for r in bfs_distances(
        edges_ds.select_columns(["src", "dst"]), seeds_ds,
        max_depth=4).take_all()}
    assert wd == bd


def _scc_ref(n, edges):
    """Iterative Tarjan; returns id → max-id-in-SCC."""
    adj = {i: [] for i in range(n)}
    for s, d in edges:
        if s != d:
            adj[s].append(d)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in range(n):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    out = {}
    for comp in sccs:
        m = max(comp)
        for v in comp:
            out[v] = m
    return out


def test_scc_labels_matches_tarjan_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import scc_labels

    rng = np.random.default_rng(17)
    n = 60
    # sparse random digraph + a planted 3-cycle and a 2-cycle
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 110), rng.integers(0, n, 110))]
    edges += [(3, 12), (12, 41), (41, 3), (7, 8), (8, 7)]
    ref = _scc_ref(n, edges)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(7).materialize()
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])

    # (broadcast_cutoff, local_cutoff): local-Tarjan gate (default),
    # distributed broadcast-attach passes, distributed forced-join passes
    for bc, lc in ((None, 2_000_000), (None, 0), (0, 0)):
        out = scc_labels(edges_ds, nodes_ds, broadcast_cutoff=bc,
                         local_cutoff=lc).take_all()
        got = {r["id"]: r["scc"] for r in out}
        assert got == ref, f"cutoff={bc} local={lc}"


def test_kmeans_lloyd_recovers_planted_clusters(ray_session):
    """Full-corpus Lloyd on 3 planted directional clusters: assignment
    partitions by cluster, and the spherical objective (Σ max-sim) is
    nondecreasing per round — the Lloyd monotonicity invariant."""
    import ray

    from deepwebharvester_ray.functions.ann import kmeans_lloyd

    rng = np.random.default_rng(21)
    dirs = np.eye(3)
    rows = []
    truth = {}
    for i in range(240):
        c = i % 3
        v = dirs[c] + 0.05 * rng.standard_normal(3)
        rows.append({"vec_id": i, "embedding": v.tolist()})
        truth[i] = c
    ds = ray.data.from_items(rows).repartition(6)

    cents, assign_ds, sims = kmeans_lloyd(ds, n_cells=3, iters=4,
                                          train_sample=64)
    assert cents.shape == (3, 3)
    # monotone nondecreasing objective (tiny float tolerance)
    assert all(b >= a - 1e-9 for a, b in zip(sims, sims[1:])), sims
    got = {r["vec_id"]: r["cell"] for r in assign_ds.take_all()}
    # each true cluster lands in exactly one cell, all three distinct
    cells_per_truth = {c: {got[i] for i in truth if truth[i] == c}
                       for c in range(3)}
    assert all(len(v) == 1 for v in cells_per_truth.values())
    assert len(set().union(*cells_per_truth.values())) == 3


def test_kmeans_lloyd_empty_input(ray_session):
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.ann import kmeans_lloyd

    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64())),
    }))
    cents, assign_ds, sims = kmeans_lloyd(ds, n_cells=4)
    assert cents is None and sims == []
    assert assign_ds.count() == 0


def test_scc_labels_ring_plus_tree(ray_session):
    """A directed ring is ONE SCC; tree nodes hanging off it are
    singletons — the corpus-graph shape in miniature."""
    import ray

    from deepwebharvester_ray.functions.graph import scc_labels

    ring = [(i, (i + 1) % 10) for i in range(10)]          # 0..9 cycle
    tree = [(i, i + 10) for i in range(10)]                # leaves 10..19
    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in ring + tree]).materialize()
    nodes_ds = ray.data.from_items([{"id": i} for i in range(20)])
    got = {r["id"]: r["scc"] for r in scc_labels(
        edges_ds, nodes_ds).take_all()}
    assert all(got[i] == 9 for i in range(10))
    assert all(got[i] == i for i in range(10, 20))


def test_semantic_dedup_no_self_pairs_on_duplicate_ids(ray_session):
    """A re-ingested embedding (same vec_id twice, identical vector)
    must not emit an id_a == id_b self-pair from the in-cell matmul."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.dedup import semantic_dedup_pairs

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(6, 16)).astype(np.float64)
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(6)]
    rows.append({"vec_id": 2, "embedding": vecs[2].tolist()})  # dup id
    ds = ray.data.from_items(rows)
    pairs = semantic_dedup_pairs(ds, id_column="vec_id",
                                 vec_column="embedding",
                                 threshold=0.99, n_cells=1).take_all()
    assert all(r["id_a"] < r["id_b"] for r in pairs)


def test_dd_quantiles_subunit_and_zero_ordering(ray_session):
    """Bucket encoding must keep ENCODED order == VALUE order: zeros
    sort before sub-unit positives, and values in (1/gamma, 1] must not
    collide with the reserved zero bucket (q_0.5 of ~1.0-valued data
    returned 0.0 before the shifted encoding)."""
    import ray

    from deepwebharvester_ray.functions.sketch import dd_quantiles

    vals = [0.98, 0.99, 1.0, 1.0]
    out = dd_quantiles(
        ray.data.from_items([{"v": v} for v in vals]), "v", [0.5],
        alpha=0.01,
    ).to_pylist()[0]
    assert abs(out["q_0.5"] - 0.99) / 0.99 <= 0.011

    vals2 = [0.0, 0.0, 0.0, 0.5]
    out2 = dd_quantiles(
        ray.data.from_items([{"v": v} for v in vals2]), "v", [0.25, 1.0],
        alpha=0.01,
    ).to_pylist()[0]
    assert out2["q_0.25"] == 0.0
    assert abs(out2["q_1.0"] - 0.5) / 0.5 <= 0.011


def test_grouped_hll_key_type_consistency(ray_session):
    """int32 / dictionary keys with an EMPTY block in the mix: every
    partial block must emit the same canonical key type or the
    downstream sort fails on mismatched schemas."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.sketch import grouped_hll_distinct

    t = pa.table({
        "k": pa.array([1, 1, 2], pa.int32()),
        "v": pa.array(["a", "b", "a"], pa.string()),
    })
    ds = ray.data.from_arrow([t, t.slice(0, 0), t])
    out = {r["k"]: r["n_distinct_est"]
           for r in grouped_hll_distinct(ds, "k", "v").take_all()}
    assert out == {1: 2, 2: 1}

    td = pa.table({
        "k": pa.array(["x", "y", "x"]).dictionary_encode(),
        "v": pa.array(["a", "b", "c"], pa.string()),
    })
    ds2 = ray.data.from_arrow([td, td.slice(0, 0)])
    out2 = {r["k"]: r["n_distinct_est"]
            for r in grouped_hll_distinct(ds2, "k", "v").take_all()}
    assert out2 == {"x": 2, "y": 1}


def test_fingerprint_short_doc_word_boundaries():
    """Sub-k documents must stay boundary-sensitive: 'ab c', 'a bc' and
    'abc' are different documents and must not share a fingerprint."""
    import pyarrow as pa

    from deepwebharvester_ray.functions import textops

    t = pa.table({"text": ["ab c", "a bc", "abc"]})
    fps = textops.fingerprint_batch(t).column("fingerprint").to_pylist()
    assert len(set(fps)) == 3


def test_kcore_brute_force_reference():
    """Parallel dataflow peeling == sequential brute-force peeling on a
    random sparse graph (multi-round cascades, duplicate + reverse +
    self-loop edges in the input)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import kcore_nodes

    rng = np.random.default_rng(11)
    n = 400
    src = rng.integers(0, n, 1400)
    dst = rng.integers(0, n, 1400)
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
    })).repartition(7)

    for k in (2, 3, 4):
        got = {r["id"]: r["deg"] for r in kcore_nodes(edges, k).take_all()}

        adj = {}
        for s, d in zip(src.tolist(), dst.tolist()):
            if s == d:
                continue
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set()).add(s)
        while True:
            rm = [u for u, vs in adj.items() if len(vs) < k]
            if not rm:
                break
            for u in rm:
                for v in adj[u]:
                    adj[v].discard(u)
                del adj[u]
        assert got == {u: len(vs) for u, vs in adj.items()}, k


def test_kcore_cascade_tree_ring():
    """A leaf-to-root cascade: hierarchy tree + 8-node ring with chords
    — the 3-core is exactly the ring, reached only through multi-round
    peeling (single-pass degree filtering would keep internal tree
    nodes of degree 3)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import kcore_nodes

    n, m = 200, 8
    d = np.arange(1, n, dtype=np.int64)
    ring = np.arange(m, dtype=np.int64)
    src = np.concatenate([d, ring, ring])
    dst = np.concatenate([d // 2, (ring + 1) % m, (ring + 2) % m])
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
    })).repartition(5)
    got = {r["id"] for r in kcore_nodes(edges, 3).take_all()}
    assert got == set(range(m))


def test_mmr_topk_reference_and_diversity():
    """MMR == an independent greedy reference on planted clusters; the
    diversified list must interleave clusters where plain top-k would
    return one cluster's near-duplicates back to back."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.ann import brute_topk, mmr_topk

    rng = np.random.default_rng(3)
    # two tight clusters + noise; query sits nearer cluster A
    a = rng.normal((5, 0, 0), 0.01, (20, 3))
    b = rng.normal((4, 3, 0), 0.01, (20, 3))
    noise = rng.normal(0, 1, (60, 3))
    mat = np.vstack([a, b, noise])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat]),
    })).repartition(4)
    q = np.array([[5.0, 0.5, 0.0]])
    k, pool, lam = 6, 30, 0.5

    got = mmr_topk(ds, q, k=k, pool=pool, lam=lam).to_pydict()

    # independent reference: same pool, plain greedy
    cand = brute_topk(ds, q, k=pool).to_pydict()
    ids = np.asarray(cand["id"])
    rel = np.asarray(cand["score"])
    vecs = mat[ids]
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = vn @ vn.T
    chosen, max_sim = [], np.zeros(len(ids))
    for _ in range(k):
        mmr = lam * rel - (1 - lam) * max_sim
        for c in chosen:
            mmr[c] = -np.inf
        best = min(range(len(ids)), key=lambda i: (-mmr[i], ids[i]))
        chosen.append(best)
        max_sim = np.maximum(max_sim, sims[:, best])
    assert got["id"] == [int(ids[c]) for c in chosen]
    assert got["rank"] == list(range(1, k + 1))
    # rank 1 == plain relevance argmax
    assert got["id"][0] == int(ids[0])
    # diversification: plain top-k returns ONLY cluster-A near-dups,
    # MMR must break out of the cluster within the same k
    assert all(i < 20 for i in ids[:k])
    assert any(i >= 20 for i in got["id"])


def test_pca_project_matches_numpy_reference():
    """Distributed two-pass PCA == full-data numpy PCA (up to the fixed
    sign convention) on a multi-block anisotropic cloud; components
    orthonormal, explained variance descending, projection variance
    concentrated on pc0."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.ann import pca_project

    rng = np.random.default_rng(5)
    base = rng.normal(0, 1, (600, 4))
    mat = base * np.array([6.0, 2.0, 0.5, 0.1]) + np.array([3, -1, 0, 2.0])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat]),
    })).repartition(6)

    out, (comp, mean, explained) = pca_project(ds, n_components=2)
    df = out.to_pandas().sort_values("vec_id").reset_index(drop=True)

    # reference: full-data covariance eigh, same sign convention
    mu = mat.mean(axis=0)
    cov = (mat - mu).T @ (mat - mu) / len(mat)
    evals, evecs = np.linalg.eigh(cov)
    rcomp = evecs[:, ::-1][:, :2].T.copy()
    for i in range(2):
        j = int(np.argmax(np.abs(rcomp[i])))
        if rcomp[i, j] < 0:
            rcomp[i] = -rcomp[i]
    rproj = (mat - mu) @ rcomp.T

    assert np.allclose(comp, rcomp, atol=1e-8)
    assert np.allclose(mean, mu, atol=1e-9)
    assert np.allclose(df[["pc0", "pc1"]].to_numpy(), rproj, atol=1e-7)
    assert np.allclose(comp @ comp.T, np.eye(2), atol=1e-10)
    assert explained[0] >= explained[1] >= 0
    assert df["pc0"].var() > df["pc1"].var()


def test_pca_project_empty():
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.ann import pca_project

    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    out, model = pca_project(ds, n_components=2)
    assert out.count() == 0 and model is None


def test_pagerank_seeded_chain_reach():
    """Personalized teleport: on a directed chain seeded at node 0, mass
    can only be k hops from the seed after k iterations — nodes beyond
    the iteration horizon score exactly 0, the seed scores highest."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import pagerank

    n = 12
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(range(n - 1), pa.int64()),
        "dst": pa.array(range(1, n), pa.int64()),
    }))
    nodes = ray.data.from_arrow(pa.table({"id": pa.array(range(n),
                                                         pa.int64())}))
    s = {r["id"]: r["score"]
         for r in pagerank(edges, nodes, iters=5,
                           seed_ids=np.array([0])).take_all()}
    # exact integer arithmetic: seed keeps the teleport base 0.15*scale;
    # the wavefront at hop 5 carries floor-cascaded 0.85^5*scale
    assert s[0] == 150_000_000_000
    assert s[5] == 443_705_312_500
    assert all(s[i] > 0 for i in range(6))
    assert all(s[i] == 0 for i in range(6, n))


def _cdc_cuts_reference(data: bytes):
    """Per-byte reference for cdc_cut_points: literal polynomial window
    hash in Python ints, mod 2**64."""
    w, prime, mask = dedup.CDC_WINDOW, dedup._CDC_PRIME, dedup.CDC_MASK
    pw = [pow(prime, k, 1 << 64) for k in range(w)]
    cuts = []
    for i in range(w - 1, len(data)):
        h = sum(data[i - k] * pw[k] for k in range(w)) % (1 << 64)
        if h & mask == 0 and i < len(data) - 1:
            cuts.append(i)
    return np.asarray(cuts, np.int64)


def test_cdc_cut_points_match_reference():
    rng = np.random.default_rng(7)
    for n in (0, 5, dedup.CDC_WINDOW - 1, dedup.CDC_WINDOW, 300, 5000):
        data = rng.integers(0, 256, n).astype(np.uint8).tobytes()
        got = dedup.cdc_cut_points(np.frombuffer(data, np.uint8))
        want = _cdc_cuts_reference(data)
        assert np.array_equal(got, want), f"n={n}"


def test_cdc_shift_resistance():
    """THE CDC property: prepending bytes leaves every chunk after the
    first content-defined boundary identical — fixed-size chunking
    would shift and rewrite all of them."""
    import hashlib

    rng = np.random.default_rng(11)
    base = rng.integers(0, 256, 8000).astype(np.uint8).tobytes()
    shifted = rng.integers(0, 256, 137).astype(np.uint8).tobytes() + base

    def chunk_hashes(raw: bytes):
        arr = np.frombuffer(raw, np.uint8)
        cuts = dedup.cdc_cut_points(arr)
        starts = np.concatenate([[0], cuts + 1])
        ends = np.concatenate([cuts + 1, [len(arr)]])
        return [hashlib.md5(raw[s:e]).hexdigest()
                for s, e in zip(starts, ends)]

    h1, h2 = chunk_hashes(base), chunk_hashes(shifted)
    assert len(h1) > 8, "corpus too small to exercise chunking"
    # every chunk of base except the first must reappear in shifted
    assert set(h1[1:]) <= set(h2)
    # and the tails are identical element-wise (same order, same cuts)
    k = len(h1) - 1
    assert h1[-k:] == h2[-k:]


def test_cdc_chunk_batch_roundtrip():
    """Chunk lengths of each doc must sum to its byte length; dup texts
    produce identical chunk-hash sequences; empty docs emit nothing."""
    t1 = "the quick brown fox jumps over the lazy dog " * 40
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([t1, t1, ""], pa.string()),
    })
    out = dedup.cdc_chunk_batch(batch)
    ids = np.asarray(out.column("doc_id").to_pylist())
    ln = np.asarray(out.column("chunk_len").to_pylist())
    hs = np.asarray(out.column("chunk_hash").to_pylist())
    assert set(ids) == {1, 2}
    for d in (1, 2):
        assert ln[ids == d].sum() == len(t1.encode())
    assert list(hs[ids == 1]) == list(hs[ids == 2])


def test_cdc_dedup_query(ray_session):
    from deepwebharvester_ray.pipelines.queries import q_cdc_dedup

    t = q_cdc_dedup("/root/testdata/sf0.001").to_pandas()
    assert len(t) > 0
    assert (t.bytes_distinct <= t.bytes_total).all()
    assert (t.n_distinct <= t.n_chunks).all()
    assert ((t.dedup_ppm > 0) & (t.dedup_ppm <= 1_000_000)).all()


def test_merge_join_matches_pandas(ray_session):
    """Sort-merge equijoin vs pandas merge: duplicate keys on both
    sides (m×n multiplicity), unmatched keys dropped, null keys
    dropped — exact multiset equality across many blocks."""
    import pandas as pd
    import ray

    from deepwebharvester_ray.functions.mergejoin import merge_join

    rng = np.random.default_rng(23)
    left = [{"k": int(x), "lv": i}
            for i, x in enumerate(rng.integers(0, 40, 300))]
    right = [{"k": int(x), "rv": 1000 + i}
             for i, x in enumerate(rng.integers(0, 40, 120))]
    lds = ray.data.from_items(left).repartition(7)
    rds = ray.data.from_items(right).repartition(5)

    out = merge_join(lds, rds, "k", ["lv"], ["rv"]).take_all()
    got = sorted((r["k"], r["lv"], r["rv"]) for r in out)
    ref = pd.merge(pd.DataFrame(left), pd.DataFrame(right), on="k")
    expect = sorted(map(tuple, ref[["k", "lv", "rv"]].values.tolist()))
    assert got == expect


def test_merge_join_hot_key_guard(ray_session):
    import ray

    from deepwebharvester_ray.functions.mergejoin import merge_join

    lds = ray.data.from_items([{"k": 1, "lv": i} for i in range(200)])
    rds = ray.data.from_items([{"k": 1, "rv": i} for i in range(200)])
    import traceback

    import pytest as _pytest

    # Ray wraps the task's RuntimeError (UserCodeException); assert on
    # the guard message anywhere in the chain
    with _pytest.raises(Exception) as ei:
        merge_join(lds, rds, "k", ["lv"], ["rv"],
                   max_key_product=1000).take_all()
    chain = "".join(traceback.format_exception(ei.value))
    assert "salt it or broadcast" in chain


def _mis_greedy_ref(n, edges):
    """Sequential greedy MIS by ascending (priority, id) — the exact
    result fixed-priority Luby must reproduce."""
    from deepwebharvester_ray.functions.graph import _mis_priority

    adj = {i: set() for i in range(n)}
    for s, d in edges:
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
    p = _mis_priority(np.arange(n, dtype=np.int64))
    order = sorted(range(n), key=lambda i: (p[i], i))
    mis, blocked = set(), set()
    for v in order:
        if v not in blocked:
            mis.add(v)
            blocked.add(v)
            blocked |= adj[v]
    return mis


def test_mis_select_matches_sequential_greedy(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import mis_select

    rng = np.random.default_rng(23)
    n = 80
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 160), rng.integers(0, n, 160))]
    # planted shapes: a triangle, a path, self-loop noise, isolated
    # nodes 76..79 (no incident edges)
    edges += [(1, 2), (2, 3), (3, 1), (10, 11), (11, 12), (5, 5)]
    edges = [(s, d) for s, d in edges if max(s, d) < 76]
    ref = _mis_greedy_ref(n, edges)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(7).materialize()
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])

    out = mis_select(nodes_ds, edges_ds).take_all()
    got = {r["doc_id"] for r in out if r["in_mis"]}
    assert got == ref
    assert len(out) == n
    # independence: no edge inside the set
    assert not any(s in got and d in got for s, d in edges if s != d)
    # maximality: every outsider has a neighbor inside
    adj = {i: set() for i in range(n)}
    for s, d in edges:
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
    assert all(adj[v] & got for v in range(n) if v not in got)
    # isolated nodes are always in the MIS
    assert {76, 77, 78, 79} <= got


def test_mis_select_large_path_matches_greedy_and_broadcast(ray_session):
    """Force the large-graph (anti/semi-join) path with broadcast_below=1
    and pin it against BOTH the sequential greedy reference and the
    broadcast path — the two paths must be bit-identical (same fixed
    priorities, same round semantics)."""
    import ray

    from deepwebharvester_ray.functions.graph import mis_select

    rng = np.random.default_rng(517)
    n = 120
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 300), rng.integers(0, n, 300))]
    edges += [(0, 1), (1, 2), (2, 0), (100, 101)]
    ref = _mis_greedy_ref(n, edges)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(9).materialize()
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])

    out = mis_select(nodes_ds, edges_ds, broadcast_below=1).take_all()
    got = {r["doc_id"] for r in out if r["in_mis"]}
    assert got == ref
    assert len(out) == n and len({r["doc_id"] for r in out}) == n
    # bit-identical to the broadcast path
    bc = mis_select(nodes_ds, edges_ds).take_all()
    assert (sorted((r["doc_id"], r["in_mis"]) for r in out)
            == sorted((r["doc_id"], r["in_mis"]) for r in bc))
    # independence + maximality on the large path's own output
    adj = {i: set() for i in range(n)}
    for s, d in edges:
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
    assert not any(s in got and d in got for s, d in edges if s != d)
    assert all(adj[v] & got for v in range(n) if v not in got)


def test_mis_select_edgeless_and_determinism(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import mis_select

    nodes_ds = ray.data.from_items([{"id": i} for i in range(7)])
    empty = ray.data.from_items(
        [{"src": 0, "dst": 0}]  # only a self-loop -> stripped
    )
    out = mis_select(nodes_ds, empty).take_all()
    assert all(r["in_mis"] == 1 for r in out) and len(out) == 7

    ring = ray.data.from_items(
        [{"src": i, "dst": (i + 1) % 7} for i in range(7)]
    ).repartition(3).materialize()
    a = sorted((r["doc_id"], r["in_mis"])
               for r in mis_select(nodes_ds, ring).take_all())
    b = sorted((r["doc_id"], r["in_mis"])
               for r in mis_select(nodes_ds, ring).take_all())
    assert a == b
    chosen = {i for i, f in a if f}
    assert 2 <= len(chosen) <= 3  # ring of 7: any maximal IS has 2-3


def _ktruss_ref(edges, k):
    """Brute-force k-truss peel via adjacency-set intersection."""
    E = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    while True:
        adj = {}
        for u, v in E:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        keep = {(u, v) for (u, v) in E if len(adj[u] & adj[v]) >= k - 2}
        if keep == E:
            return E
        E = keep


def test_ktruss_edges_matches_brute_force(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import ktruss_edges

    rng = np.random.default_rng(31)
    n = 40
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 140), rng.integers(0, n, 140))]
    # planted K5 on 0-4 (4-truss survivor) + a pendant triangle (dies
    # at k=4: its edges close exactly 1 triangle)
    edges += [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(10, 11), (11, 12), (12, 10)]

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(5).materialize()

    for k in (3, 4):
        ref = _ktruss_ref(edges, k)
        # local-peel gate (default), then the distributed wedge-join
        # rounds forced via local_cutoff=0
        for lc in (2_000_000, 0):
            got = {(r["u"], r["v"])
                   for r in ktruss_edges(edges_ds, k=k,
                                         local_cutoff=lc).take_all()}
            assert got == ref, f"k={k} local={lc}"
    # K5 must survive k=4 regardless of the random noise
    got4 = {(r["u"], r["v"])
            for r in ktruss_edges(edges_ds, k=4).take_all()}
    assert {(a, b) for a in range(5) for b in range(a + 1, 5)} <= got4
    assert (10, 11) not in got4      # pendant triangle peeled at k=4


def test_ktruss_triangle_free_graph_empties(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import ktruss_edges

    star = ray.data.from_items(
        [{"src": 0, "dst": i} for i in range(1, 8)]).materialize()
    out = ktruss_edges(star, k=3).take_all()
    assert out == []


def test_resolve_pointers_chains_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import resolve_pointers

    # a 100-hop chain (100→99→…→0), a 3-node tree onto node 200
    # (201→200, 202→200, 203→202), and an untouched terminal 300
    edges = [(i, i - 1) for i in range(1, 101)]
    edges += [(201, 200), (202, 200), (203, 202)]
    expect = {i: (0, i) for i in range(1, 101)}
    expect.update({201: (200, 1), 202: (200, 1), 203: (200, 2)})

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(5).materialize()

    for bc in (2_000_000, 0):  # broadcast path, then forced join path
        out = resolve_pointers(edges_ds, broadcast_below=bc).take_all()
        got = {r["id"]: (r["final_id"], r["hops"]) for r in out}
        assert got == expect, f"broadcast_below={bc}"

    # pointer doubling: a 100-hop chain resolves in ceil(log2(100)) = 7
    # jump rounds plus one zero-update round to observe convergence —
    # 8 total, not 100
    out = resolve_pointers(edges_ds, max_rounds=8).take_all()
    assert {r["id"]: (r["final_id"], r["hops"]) for r in out} == expect


def test_resolve_pointers_cycle_raises(ray_session):
    import ray
    import pytest

    from deepwebharvester_ray.functions.graph import resolve_pointers

    cyc = ray.data.from_items(
        [{"src": 1, "dst": 2}, {"src": 2, "dst": 1}, {"src": 5, "dst": 1}]
    ).materialize()
    with pytest.raises(RuntimeError, match="cycle"):
        resolve_pointers(cyc, max_rounds=6)


def _lpa_ref(n, ue, rounds):
    """Sequential reference: synchronous most-frequent-neighbor-label
    update with min-label ties, over an edge multiset (u → v)."""
    lab = list(range(n))
    for _ in range(rounds):
        votes = [dict() for _ in range(n)]
        for u, v in ue:
            votes[v][lab[u]] = votes[v].get(lab[u], 0) + 1
        nxt = list(lab)
        for v in range(n):
            if votes[v]:
                best = max(votes[v].items(), key=lambda kv: (kv[1], -kv[0]))
                nxt[v] = best[0]
        lab = nxt
    return {i: lab[i] for i in range(n)}


def test_label_propagation_matches_reference_both_paths(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import label_propagation

    rng = np.random.default_rng(23)
    n = 40
    # two planted 8-cliques bridged by one edge + sparse random noise
    edges = [(a, b) for a in range(8) for b in range(8) if a != b]
    edges += [(a, b) for a in range(20, 28) for b in range(20, 28)
              if a != b]
    edges += [(7, 20), (20, 7)]
    for s, d in zip(rng.integers(0, n, 30), rng.integers(0, n, 30)):
        if s != d:
            edges += [(int(s), int(d)), (int(d), int(s))]
    ref = _lpa_ref(n, edges, rounds=4)

    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])
    ue = ray.data.from_items(
        [{"u": u, "v": v} for u, v in edges]).repartition(6).materialize()

    for bc in (2_000_000, 0):  # broadcast attach, then forced join path
        out = label_propagation(nodes_ds, ue, rounds=4,
                                broadcast_below=bc).take_all()
        got = {r["id"]: r["label"] for r in out}
        assert got == ref, f"broadcast_below={bc}"
    # the two cliques end as two distinct communities
    assert len({ref[i] for i in range(8)}) == 1
    assert len({ref[i] for i in range(20, 28)}) == 1
    assert ref[0] != ref[20]


def test_label_propagation_isolated_and_multiplicity(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import label_propagation

    # node 5 isolated (keeps own label); node 2's DOUBLE edge to 9
    # outvotes its single edges to 0 and 1
    edges = [(9, 2), (9, 2), (0, 2), (1, 2)]
    nodes_ds = ray.data.from_items([{"id": i} for i in (0, 1, 2, 5, 9)])
    ue = ray.data.from_items(
        [{"u": u, "v": v} for u, v in edges]).materialize()
    out = label_propagation(nodes_ds, ue, rounds=1).take_all()
    got = {r["id"]: r["label"] for r in out}
    assert got[5] == 5 and got[2] == 9


def test_greedy_coloring_matches_iterated_greedy(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import greedy_coloring

    rng = np.random.default_rng(31)
    n = 60
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 150), rng.integers(0, n, 150))]
    edges += [(1, 2), (2, 3), (3, 1), (5, 5)]  # triangle + self-loop
    # sequential reference: iterate the greedy MIS on the residual
    ref, live, live_edges = {}, set(range(n)), list(edges)
    c = 0
    while live:
        mis = _mis_greedy_ref(n, live_edges)
        mis &= live
        for v in mis:
            ref[v] = c
        live -= mis
        live_edges = [(s, d) for s, d in live_edges
                      if s not in mis and d not in mis]
        c += 1

    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])
    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]
    ).repartition(6).materialize()
    out = greedy_coloring(nodes_ds, edges_ds).take_all()
    got = {r["id"]: r["color"] for r in out}
    assert got == ref
    # properness: no edge joins two same-colored nodes
    assert not any(got[s] == got[d] for s, d in edges if s != d)
    # bound: colors <= max degree + 1
    deg = np.zeros(n, np.int64)
    for s, d in set(map(tuple, map(sorted, edges))):
        if s != d:
            deg[s] += 1
            deg[d] += 1
    assert max(got.values()) + 1 <= deg.max() + 1
    assert len(got) == n


def test_neighborhood_function_path_graph(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import neighborhood_function

    n, R = 120, 6
    # directed path 0→1→…→n−1: exact pairs within ≤ r hops is
    # Σ_u min(r+1, n−u)
    edges_ds = ray.data.from_items(
        [{"src": i, "dst": i + 1} for i in range(n - 1)]
    ).repartition(5).materialize()
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])

    out = neighborhood_function(nodes_ds, edges_ds, rounds=R)
    got = {r: e for r, e in zip(out.column("r").to_pylist(),
                                out.column("reach_est").to_pylist())}
    assert sorted(got) == list(range(R + 1))
    prev = 0.0
    for r in range(R + 1):
        true = sum(min(r + 1, n - u) for u in range(n))
        assert abs(got[r] - true) / true < 0.30, (r, got[r], true)
        assert got[r] >= prev - 1e-9  # monotone non-decreasing curve
        prev = got[r]
    # deterministic: a second run reproduces the curve exactly
    out2 = neighborhood_function(nodes_ds, edges_ds, rounds=R)
    assert out2.column("reach_est").to_pylist() == \
        out.column("reach_est").to_pylist()


def test_neighborhood_function_join_path_agrees(ray_session):
    import ray

    from deepwebharvester_ray.functions.graph import neighborhood_function

    n = 40
    rng = np.random.default_rng(7)
    edges_ds = ray.data.from_items(
        [{"src": int(s), "dst": int(d)} for s, d in
         zip(rng.integers(0, n, 80), rng.integers(0, n, 80))]
    ).repartition(4).materialize()
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])
    a = neighborhood_function(nodes_ds, edges_ds, rounds=3,
                              local_cutoff=0)  # distributed broadcast
    b = neighborhood_function(nodes_ds, edges_ds, rounds=3,
                              broadcast_below=0,
                              local_cutoff=0)  # forced join path
    assert a.column("reach_est").to_pylist() == \
        b.column("reach_est").to_pylist()
    # the local-gate registers are bit-identical; the curve's float
    # SUM may differ only in final ulps from the blockwise sums
    c = neighborhood_function(nodes_ds, edges_ds, rounds=3)
    for x, y in zip(a.column("reach_est").to_pylist(),
                    c.column("reach_est").to_pylist()):
        assert x == pytest.approx(y, rel=1e-9)


def _stress_ref(edges, seeds, max_depth):
    """Sequential Brandes-style sampled STRESS reference: for each seed
    a BFS (edge multiplicity counted — the engine's edge-multiset
    contract), layer sigma sums, reverse-order DAG path counts P, and
    stress(v) += sigma·P with the endpoint exclusion."""
    from collections import defaultdict, deque

    adj = defaultdict(list)
    for s, d in edges:
        adj[s].append(d)
    stress = defaultdict(int)
    for s in seeds:
        dist, sigma, order = {s: 0}, {s: 1}, [s]
        dq = deque([s])
        while dq:
            u = dq.popleft()
            if dist[u] == max_depth:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    sigma[w] = 0
                    dq.append(w)
                    order.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
        pcnt = {v: 0 for v in dist}
        for v in reversed(order):
            for w in adj[v]:
                if w in dist and dist[w] == dist[v] + 1:
                    pcnt[v] += 1 + pcnt[w]
        for v in dist:
            if v != s:
                stress[v] += sigma[v] * pcnt[v]
    return {v: c for v, c in stress.items() if c}


def test_stress_centrality_diamond(ray_session):
    """Hand-computed diamond + tail: 0→{1,2}→3→4, seed {0} — sigma(3)=2
    (two parallel shortest routes), P(1)=P(2)=2, so stress(1)=stress(2)=
    stress(3)=2 and endpoints 0/4 carry none."""
    import ray

    from deepwebharvester_ray.functions.graph import stress_centrality

    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]).repartition(3)
    out = {r["id"]: r["stress"]
           for r in stress_centrality(edges_ds, np.array([0]),
                                      max_depth=6).take_all()}
    assert {v: c for v, c in out.items() if c} == {1: 2, 2: 2, 3: 2}


def test_stress_centrality_matches_brute_force(ray_session):
    """Random directed multigraph (duplicate edges KEPT — multiplicity
    is part of the contract) + planted diamond, 3 seeds, depth 6: the
    distributed result must equal the sequential reference exactly,
    including zero-stress reachable nodes."""
    import ray

    from deepwebharvester_ray.functions.graph import stress_centrality

    rng = np.random.default_rng(41)
    n = 120
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 300), rng.integers(0, n, 300))]
    edges += [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]   # planted diamond
    edges += edges[:20]                                  # forced dups
    seeds = [0, 7, 19]
    ref = _stress_ref(edges, seeds, max_depth=6)

    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]).repartition(7)
    out = {r["id"]: r["stress"]
           for r in stress_centrality(edges_ds, np.array(seeds),
                                      max_depth=6).take_all()}
    assert {v: c for v, c in out.items() if c} == ref


def test_stress_centrality_join_path_agrees(ray_session):
    """broadcast_below=0 forces the native-join attach in BOTH phases;
    the result must be identical to the broadcast path (and to the
    sequential reference)."""
    import ray

    from deepwebharvester_ray.functions.graph import stress_centrality

    rng = np.random.default_rng(43)
    n = 60
    edges = [(int(s), int(d)) for s, d in
             zip(rng.integers(0, n, 150), rng.integers(0, n, 150))]
    seeds = [0, 5]
    edges_ds = ray.data.from_items(
        [{"src": s, "dst": d} for s, d in edges]).repartition(5)
    a = {r["id"]: r["stress"]
         for r in stress_centrality(edges_ds, np.array(seeds),
                                    max_depth=5,
                                    local_cutoff=0).take_all()}
    b = {r["id"]: r["stress"]
         for r in stress_centrality(edges_ds, np.array(seeds),
                                    max_depth=5, broadcast_below=0,
                                    local_cutoff=0).take_all()}
    assert {v: c for v, c in a.items() if c} == \
        {v: c for v, c in b.items() if c}
    assert {v: c for v, c in a.items() if c} == \
        _stress_ref(edges, seeds, max_depth=5)


def _kruskal_ref(src, dst, w, n):
    """Sequential Kruskal under the strict (weight, canonical-key)
    total order — the unique-MSF reference boruvka_msf must equal."""
    import numpy as np

    a, b = np.minimum(src, dst), np.maximum(src, dst)
    keep = a != b
    a, b, w = a[keep], b[keep], w[keep]
    ukey = (a << np.int64(31)) | b
    seen = {}
    for ai, bi, wi, ui in zip(a, b, w, ukey):
        if ui not in seen or wi < seen[ui][2]:
            seen[ui] = (int(ai), int(bi), int(wi), int(ui))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ref = []
    for ai, bi, wi, _ in sorted(seen.values(), key=lambda t: (t[2], t[3])):
        ra, rb = find(ai), find(bi)
        if ra != rb:
            parent[ra] = rb
            ref.append((ai, bi, wi))
    return sorted(ref)


def test_boruvka_msf_matches_kruskal(ray_session):
    """Derived-hash weights on random MULTIGRAPHS (parallel edges,
    self-loops, disconnected forests) must equal sequential Kruskal
    edge-for-edge — unique MSF under the (w, ukey) total order."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import (_splitmix64,
                                                      boruvka_msf)

    rng = np.random.default_rng(7)
    for n, m in [(30, 60), (200, 400), (50, 20)]:
        src = rng.integers(0, n, m).astype(np.int64)
        dst = rng.integers(0, n, m).astype(np.int64)
        edges = ray.data.from_arrow(pa.table({
            "src": pa.array(src), "dst": pa.array(dst)})).repartition(4)
        a, b = np.minimum(src, dst), np.maximum(src, dst)
        ukey = (a << np.int64(31)) | b
        w = (_splitmix64(ukey.view(np.uint64)) >> np.uint64(1)) \
            .astype(np.int64)
        ref = _kruskal_ref(src, dst, w, n)
        # local-Kruskal gate (default), then forced Borůvka rounds
        for lc in (2_000_000, 0):
            got = sorted((r["src"], r["dst"], r["weight"])
                         for r in boruvka_msf(
                             edges, local_cutoff=lc).take_all())
            assert got == ref, lc


def test_boruvka_msf_ties_join_path_empty(ray_session):
    """User-supplied HEAVILY TIED weights through BOTH attach paths
    (broadcast and forced native join) must equal Kruskal under the
    same tiebreak; the empty graph yields an empty forest."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import boruvka_msf

    rng = np.random.default_rng(11)
    n, m = 120, 500
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    w = rng.integers(0, 5, m).astype(np.int64)
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst),
        "w": pa.array(w)})).repartition(5)
    ref = _kruskal_ref(src, dst, w, n)
    got = sorted((r["src"], r["dst"], r["weight"])
                 for r in boruvka_msf(edges, weight_col="w").take_all())
    assert got == ref
    got_join = sorted(
        (r["src"], r["dst"], r["weight"])
        for r in boruvka_msf(edges, weight_col="w", broadcast_below=0,
                             local_cutoff=0).take_all())
    assert got_join == ref
    empty = ray.data.from_arrow(pa.table({
        "src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}))
    assert boruvka_msf(empty).take_all() == []


def _densest_seq_ref(edge_list, eps_num=1, eps_den=10):
    """Sequential same-semantics reference for the parallel peel."""
    adj: dict = {}
    edges = set()
    for s, d in edge_list:
        if s == d:
            continue
        a, b = min(s, d), max(s, d)
        if (a, b) in edges:
            continue
        edges.add((a, b))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    best = None
    r = 0
    rounds_removed = []
    while adj:
        n, m = len(adj), len(edges)
        if best is None or m * best[1] > best[0] * n:
            best = (m, n, r)
        t = (2 * (eps_den + eps_num) * m) // (eps_den * n)
        rem = {v for v in adj if len(adj[v]) <= t}
        rounds_removed.append((r, rem))
        for v in rem:
            for w in adj.get(v, ()):
                edges.discard((min(v, w), max(v, w)))
                if w in adj:
                    adj[w].discard(v)
            adj.pop(v, None)
        adj = {v: s for v, s in adj.items() if s}
        edges = {e for e in edges if e[0] in adj and e[1] in adj}
        r += 1
    members = set().union(
        *[rem for rr, rem in rounds_removed if rr >= best[2]]
    ) if rounds_removed else set()
    return (sorted(members), best[1] if best else 0,
            best[0] if best else 0)


def test_densest_subgraph_matches_sequential(ray_session):
    """Round-synchronous removal is deterministic — the distributed
    peel must equal a sequential implementation of the SAME semantics
    exactly (members, |S|, |E(S)|) on random multigraphs."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import densest_subgraph

    rng = np.random.default_rng(5)
    for n, m in [(40, 100), (100, 250), (15, 100)]:
        src = rng.integers(0, n, m).astype(np.int64)
        dst = rng.integers(0, n, m).astype(np.int64)
        eds = ray.data.from_arrow(pa.table({
            "src": pa.array(src), "dst": pa.array(dst)})).repartition(4)
        mem_ds, nb, mb = densest_subgraph(eds)
        got = sorted(r["id"] for r in mem_ds.take_all())
        ref = _densest_seq_ref(list(zip(src.tolist(), dst.tolist())))
        assert (got, nb, mb) == ref


def test_densest_subgraph_planted_clique_and_guarantee(ray_session):
    """A planted K8 in sparse noise is recovered EXACTLY (it is the
    unique density maximum), and on tiny graphs the output density
    clears the 2(1+ε) bound against the exhaustive-subset optimum."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import densest_subgraph

    rng = np.random.default_rng(9)
    noise_s = rng.integers(8, 60, 25).astype(np.int64)
    noise_d = rng.integers(8, 60, 25).astype(np.int64)
    cs, cd = zip(*[(i, j) for i in range(8) for j in range(i + 1, 8)])
    src = np.concatenate([noise_s, np.array(cs, np.int64)])
    dst = np.concatenate([noise_d, np.array(cd, np.int64)])
    eds = ray.data.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst)})).repartition(3)
    mem_ds, nb, mb = densest_subgraph(eds)
    assert (nb, mb) == (8, 28)
    assert sorted(r["id"] for r in mem_ds.take_all()) == list(range(8))

    # exhaustive ρ* on a 10-node random graph: ρ_best·2(1+ε) ≥ ρ*
    n = 10
    src = rng.integers(0, n, 25).astype(np.int64)
    dst = rng.integers(0, n, 25).astype(np.int64)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
    best_num, best_den = 0, 1
    for k in range(1, n + 1):
        for sub in itertools.combinations(range(n), k):
            ss = set(sub)
            m_s = sum(1 for a, b in pairs if a in ss and b in ss)
            if m_s * best_den > best_num * k:
                best_num, best_den = m_s, k
    eds = ray.data.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst)})).repartition(2)
    _, nb, mb = densest_subgraph(eds)
    # mb/nb ≥ ρ*/(2·(1+1/10))  ⟺  mb·best_den·22 ≥ best_num·nb·10·2
    assert mb * best_den * 22 >= best_num * nb * 20


def _bowtie_seq_ref(nodes, edges):
    """Sequential Broder bowtie with the SAME part semantics: giant SCC
    by (-size, smallest canonical max-id label), reachability closures,
    weak component of the giant, 8-way classification."""
    from collections import defaultdict

    adj, radj = defaultdict(set), defaultdict(set)
    for s, d in edges:
        adj[s].add(d)
        radj[d].add(s)

    # Kosaraju SCC (iterative)
    seen, order = set(), []
    for v in nodes:
        if v in seen:
            continue
        stack = [(v, iter(adj[v]))]
        seen.add(v)
        while stack:
            u, it = stack[-1]
            adv = False
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(adj[w])))
                    adv = True
                    break
            if not adv:
                order.append(stack.pop()[0])
    comp = {}
    for v in reversed(order):
        if v in comp:
            continue
        stack, members = [v], []
        comp[v] = v
        while stack:
            u = stack.pop()
            members.append(u)
            for w in radj[u]:
                if w not in comp:
                    comp[w] = v
                    stack.append(w)
        lab = max(members)
        for u in members:
            comp[u] = lab
    sizes = defaultdict(int)
    for v in nodes:
        sizes[comp[v]] += 1
    giant = min(sizes, key=lambda c: (-sizes[c], c))

    def reach(seeds, graph):
        out, stack = set(seeds), list(seeds)
        while stack:
            u = stack.pop()
            for w in graph[u]:
                if w not in out:
                    out.add(w)
                    stack.append(w)
        return out

    core = {v for v in nodes if comp[v] == giant}
    fwd = reach(core, adj)
    bwd = reach(core, radj)
    ffar = reach(bwd, adj)
    bfar = reach(fwd, radj)
    # weak component of the giant (undirected reach from core)
    both = defaultdict(set)
    for s, d in edges:
        both[s].add(d)
        both[d].add(s)
    weak = reach(core, both)
    counts = dict.fromkeys(
        ("CORE", "IN", "OUT", "TUBE", "TENDRIL_IN", "TENDRIL_OUT",
         "OTHER", "DISCONNECTED"), 0)
    for v in nodes:
        if v in core:
            p = "CORE"
        elif v in bwd:
            p = "IN"
        elif v in fwd:
            p = "OUT"
        elif v in ffar and v in bfar:
            p = "TUBE"
        elif v in ffar:
            p = "TENDRIL_IN"
        elif v in bfar:
            p = "TENDRIL_OUT"
        elif v in weak:
            p = "OTHER"
        else:
            p = "DISCONNECTED"
        counts[p] += 1
    return counts


def test_bowtie_hand_graph(ray_session):
    """A hand-built graph exercising ALL EIGHT parts classifies
    exactly: 3-cycle core, IN chain, OUT chain, a 2-node tube, both
    tendril kinds, an OTHER page pointing into a tendril, and a
    separate weak component plus an isolated node."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import bowtie_decomposition

    edges = [(0, 1), (1, 2), (2, 0), (3, 0), (10, 3), (2, 4), (4, 11),
             (3, 5), (5, 6), (6, 4), (3, 7), (8, 4), (9, 7), (20, 21)]
    nodes = list(range(12)) + [20, 21, 22]
    e = ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64())})).repartition(3)
    n = ray.data.from_arrow(pa.table({"id": pa.array(nodes, pa.int64())}))
    got = {r["part"]: r["nodes"]
           for r in bowtie_decomposition(n, e).to_pylist()}
    assert got == {"CORE": 3, "IN": 2, "OUT": 2, "TUBE": 2,
                   "TENDRIL_IN": 1, "TENDRIL_OUT": 1, "OTHER": 1,
                   "DISCONNECTED": 3}
    assert got == _bowtie_seq_ref(nodes, edges)


def test_bowtie_matches_sequential_random(ray_session):
    """Random sparse digraphs (plus planted cycles so a giant SCC
    exists) must classify identically to the sequential reference —
    including isolated nodes that appear only in the node table."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import bowtie_decomposition

    rng = np.random.default_rng(23)
    for n, m in [(40, 55), (80, 100), (25, 20)]:
        edges = [(int(s), int(d)) for s, d in
                 zip(rng.integers(0, n, m), rng.integers(0, n, m))]
        edges += [(1, 2), (2, 3), (3, 1)]          # planted core seed
        nodes = list(range(n + 3))                  # 3 isolated extras
        e = ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in edges], pa.int64()),
            "dst": pa.array([b for _, b in edges], pa.int64()),
        })).repartition(5).materialize()
        nd = ray.data.from_arrow(pa.table(
            {"id": pa.array(nodes, pa.int64())}))
        got = {r["part"]: r["nodes"]
               for r in bowtie_decomposition(nd, e).to_pylist()}
        assert got == _bowtie_seq_ref(nodes, edges), (n, m)


def _bfs_seq(adj, s, max_depth):
    dist = {s: 0}
    frontier = [s]
    for r in range(1, max_depth + 1):
        nxt = []
        for u in frontier:
            for w in adj.get(u, ()):
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
    return dist


def test_multi_source_distances_matches_sequential(ray_session):
    """Per-seed distance columns on random multigraphs (duplicate edges
    and self-loops included) must equal K sequential BFS runs — on the
    broadcast path AND the forced join path."""
    from collections import defaultdict

    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import (_MSD_INF,
                                                      multi_source_distances)

    rng = np.random.default_rng(31)
    for trial, (n, m, depth) in enumerate([(30, 60, 4), (60, 150, 6)]):
        src = rng.integers(0, n, m).astype(np.int64)
        dst = rng.integers(0, n, m).astype(np.int64)
        adj = defaultdict(list)
        for a, b in zip(src.tolist(), dst.tolist()):
            adj[a].append(b)
        seeds = np.array(sorted(rng.choice(n, 4, replace=False)),
                         np.int64)
        refs = [_bfs_seq(adj, int(s), depth) for s in seeds]
        e = ray.data.from_arrow(pa.table({
            "src": pa.array(src), "dst": pa.array(dst)})).repartition(4)
        # local CSR gate (default), broadcast rounds, forced join rounds
        for bb, lc in ((2_000_000, 2_000_000), (2_000_000, 0), (0, 0)):
            state = multi_source_distances(e, seeds, depth,
                                           broadcast_below=bb,
                                           local_cutoff=lc).take_all()
            got = {r["id"]: [r[f"d{k}"] for k in range(len(seeds))]
                   for r in state}
            # every (node, seed) either matches the BFS distance or is
            # the sentinel on both sides
            all_ids = set(got)
            for ref in refs:
                all_ids |= set(ref)
            for v in all_ids:
                for k in range(len(seeds)):
                    exp = refs[k].get(v, int(_MSD_INF))
                    act = got.get(v, [int(_MSD_INF)] * len(seeds))[k]
                    assert act == exp, (trial, bb, v, k)


def test_harmonic_centrality_exact(ray_session):
    """h(v) = Σ_s scale//d must equal the fold over sequential BFS
    distances, and the default scale must be lcm(1..max_depth)."""
    from collections import defaultdict

    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.graph import harmonic_centrality

    rng = np.random.default_rng(37)
    n, m, depth = 40, 90, 5
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    adj = defaultdict(list)
    for a, b in zip(src.tolist(), dst.tolist()):
        adj[a].append(b)
    seeds = np.array([0, 7, 19], np.int64)
    scale = 60  # lcm(1..5)
    refs = [_bfs_seq(adj, int(s), depth) for s in seeds]
    exp = defaultdict(int)
    for ref in refs:
        for v, d in ref.items():
            if 1 <= d <= depth:
                exp[v] += scale // d
    e = ray.data.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst)})).repartition(3)
    got = {r["id"]: r["harmonic"]
           for r in harmonic_centrality(e, seeds, depth).take_all()}
    for v, h in exp.items():
        assert got.get(v, 0) == h, v
    for v, h in got.items():
        assert exp.get(v, 0) == h, v


def test_grouped_median_bisect_matches_sort(ray_session):
    """Multi-way distributed selection must equal the sorted lower
    median (k = (n+1)//2) on wide random domains, heavy-tie groups,
    constant groups and negative values — at two fanouts."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.agg import grouped_median_bisect

    rng = np.random.default_rng(41)
    keys = rng.choice(list("abcde"), 4000).astype(object)
    vals = rng.integers(-10**15, 10**15, 4000).astype(np.int64)
    vals[keys == "c"] = rng.integers(-3, 3, int((keys == "c").sum()))
    vals[keys == "d"] = 42
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys.tolist(), pa.string()),
        "v": pa.array(vals, pa.int64())})).repartition(5).materialize()
    for fanout in (2, 16):
        t = grouped_median_bisect(ds, "k", "v", fanout=fanout,
                                  max_rounds=80)
        got = dict(zip(t.column("k").to_pylist(),
                       t.column("median").to_pylist()))
        for g in "abcde":
            sv = np.sort(vals[keys == g])
            assert got[g] == int(sv[(len(sv) + 1) // 2 - 1]), (fanout, g)


def test_image_dims_header_parsing():
    """Codec-free dimension parse: PNG big-endian IHDR, GIF
    LITTLE-endian screen descriptor (the classic endianness bug),
    JPEG marker walk (segments skipped, standalone RST/TEM markers
    handled, SOF height-before-width), truncation and absence."""
    import struct

    from deepwebharvester_ray.functions.multimodal import image_dims

    png = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
           + struct.pack(">II", 1920, 1080) + b"\x08\x06\x00\x00\x00"
           + b"\x00" * 4)
    assert image_dims(png) == ("png", 1920, 1080)

    # 300 = 0x012C — little-endian on disk as 2C 01; a big-endian
    # reader would report 11265
    gif = b"GIF87a" + struct.pack("<HH", 300, 200) + b"\xf7\x00\x00"
    assert image_dims(gif) == ("gif", 300, 200)

    com = b"a comment segment"
    app0 = b"JFIF\x00payload"
    jpeg = (b"\xff\xd8"
            + b"\xff\x01"  # TEM: standalone, no length word
            + b"\xff\xe0" + struct.pack(">H", 2 + len(app0)) + app0
            + b"\xff\xfe" + struct.pack(">H", 2 + len(com)) + com
            + b"\xff\xc2" + struct.pack(">H", 11)  # progressive SOF2
            + b"\x08" + struct.pack(">HH", 480, 640)
            + b"\x01\x01\x11\x00" + b"\xff\xd9")
    assert image_dims(jpeg) == ("jpeg", 640, 480)  # h-first on disk

    # SOI but no SOF before EOI → jpeg with unknown dims
    assert image_dims(b"\xff\xd8\xff\xd9") == ("jpeg", -1, -1)
    # truncated PNG header / empty / junk
    assert image_dims(png[:20]) == ("unknown", -1, -1)
    assert image_dims(b"") == ("unknown", -1, -1)
    assert image_dims(b"not an image at all") == ("unknown", -1, -1)
    # DHT (C4) must NOT be mistaken for a SOF
    jpeg_dht_first = (b"\xff\xd8"
                      + b"\xff\xc4" + struct.pack(">H", 4) + b"\x00\x00"
                      + b"\xff\xc0" + struct.pack(">H", 11)
                      + b"\x08" + struct.pack(">HH", 7, 9)
                      + b"\x01\x01\x11\x00" + b"\xff\xd9")
    assert image_dims(jpeg_dht_first) == ("jpeg", 9, 7)


def test_wav_meta_chunk_walk():
    """RIFF walk: odd-chunk even-padding honored, fmt/data in either
    order, truncation and non-WAVE rejected, exact integer duration."""
    import struct

    from deepwebharvester_ray.functions.multimodal import wav_meta

    def wav(chunks):
        body = b"".join(
            four + struct.pack("<I", len(p)) + p
            + (b"\x00" if len(p) & 1 else b"") for four, p in chunks)
        return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body

    fmt = struct.pack("<HHIIHH", 1, 2, 44100, 44100 * 4, 4, 16)
    data = b"\x00" * 44100 * 4  # exactly 1 s of 44.1k stereo 16-bit
    assert wav_meta(wav([(b"fmt ", fmt), (b"data", data)])) \
        == (2, 44100, 16, 1000)
    # data BEFORE fmt, with an odd-length junk chunk between
    assert wav_meta(wav([(b"data", data), (b"JUNK", b"x" * 5),
                         (b"fmt ", fmt)])) == (2, 44100, 16, 1000)
    # floor duration: one sample short of a second
    short = b"\x00" * (44100 * 4 - 4)
    c, r, b_, d = wav_meta(wav([(b"fmt ", fmt), (b"data", short)]))
    assert d == 999
    assert wav_meta(b"RIFF\x00\x00\x00\x00AVI ") == (-1, -1, -1, -1)
    assert wav_meta(b"") == (-1, -1, -1, -1)
    assert wav_meta(wav([(b"data", data)])) == (-1, -1, -1, -1)  # no fmt


def test_mp4_meta_box_walk():
    """ISO-BMFF walk: nesting into moov past sibling boxes, the
    size==1 u64 largesize convention, both mvhd versions, floor
    duration, rejection of non-MP4 and malformed sizes."""
    import struct

    from deepwebharvester_ray.functions.multimodal import mp4_meta

    def box(four, payload):
        return struct.pack(">I", 8 + len(payload)) + four + payload

    mvhd0 = (b"\x00\x00\x00\x00" + b"\x00" * 8
             + struct.pack(">II", 1000, 2500))
    mvhd1 = (b"\x01\x00\x00\x00" + b"\x00" * 16
             + struct.pack(">I", 90000) + struct.pack(">Q", 90000 * 3 + 1))
    base = box(b"ftyp", b"mp42\x00\x00\x00\x00")

    m = base + box(b"moov", box(b"iods", b"\x00" * 4) + box(b"mvhd", mvhd0))
    assert mp4_meta(m) == ("mp42", 1000, 2500)
    # version-1 mvhd: 3 s + 1 unit floors to 3000 ms
    m = base + box(b"moov", box(b"mvhd", mvhd1))
    assert mp4_meta(m) == ("mp42", 90000, 3000)
    # largesize (size == 1, u64 follows fourcc) on the moov container
    inner = box(b"mvhd", mvhd0)
    large = (struct.pack(">I", 1) + b"moov"
             + struct.pack(">Q", 16 + len(inner)) + inner)
    assert mp4_meta(base + large) == ("mp42", 1000, 2500)
    # malformed: inner size overruns the container → no crash, no dims
    bad = base + box(b"moov", struct.pack(">I", 10 ** 6) + b"mvhd")
    assert mp4_meta(bad) == ("mp42", -1, -1)
    assert mp4_meta(b"") == ("", -1, -1)
    assert mp4_meta(b"RIFFxxxxWAVE") == ("", -1, -1)


def _bridges_ref(n, edges):
    """Sequential bridge finder (iterative Tarjan low-link)."""
    adj = {i: [] for i in range(n)}
    E = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    for idx, (a, b) in enumerate(E):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    disc = [-1] * n
    low = [0] * n
    bridges = set()
    timer = [0]
    for s in range(n):
        if disc[s] != -1:
            continue
        stack = [(s, -1, iter(adj[s]))]
        disc[s] = low[s] = timer[0]
        timer[0] += 1
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for w, eidx in it:
                if eidx == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    stack.append((w, eidx, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.add((min(u, v), max(u, v)))
    return bridges


def test_bridge_edges_matches_tarjan(ray_session):
    """bridge_edges equals a sequential Tarjan reference on planted
    shapes (chain of triangles joined by single links → exactly the
    links; a pure cycle → none; a pendant tree → every tree edge) plus
    a random graph, including isolated nodes and multi-components."""
    import ray

    from deepwebharvester_ray.functions.graph import bridge_edges

    edges = []
    # 3 triangles (0-2, 10-12, 20-22) joined by single links
    for base in (0, 10, 20):
        edges += [(base, base + 1), (base + 1, base + 2),
                  (base + 2, base)]
    edges += [(2, 10), (12, 20)]            # the two bridges
    # pendant tree off node 22: all bridges
    edges += [(22, 30), (30, 31), (30, 32)]
    # a separate pure cycle component 40..44: no bridges
    edges += [(40 + i, 40 + (i + 1) % 5) for i in range(5)]
    # random component over 50..79
    rng = np.random.default_rng(97)
    edges += [(int(a), int(b)) for a, b in zip(
        rng.integers(50, 80, 60), rng.integers(50, 80, 60))]
    # noise: self-loops and duplicate/reversed edges
    edges += [(5, 5), (0, 1), (1, 0)]

    n = 85  # includes isolated nodes 80..84
    ref = _bridges_ref(n, edges)
    nodes_ds = ray.data.from_items([{"id": i} for i in range(n)])
    edges_ds = ray.data.from_items(
        [{"src": a, "dst": b} for a, b in edges]).repartition(
        7).materialize()
    out = bridge_edges(nodes_ds, edges_ds).take_all()
    got = {(r["u"], r["v"]) for r in out}
    assert got == ref
    assert {(2, 10), (12, 20), (22, 30), (30, 31), (30, 32)} <= got
    assert not any(40 <= u <= 44 for u, _ in got)
    # force the DISTRIBUTED forest+covering path and pin it to the
    # sequential path's answer
    dist = bridge_edges(nodes_ds, edges_ds, broadcast_below=1).take_all()
    assert {(r["u"], r["v"]) for r in dist} == ref


def _seq_opic(n, edges, rounds, budget, scale):
    """Sequential budgeted synchronous OPIC reference."""
    out = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    cash = {i: scale // n for i in range(n)}
    hist = {i: 0 for i in range(n)}
    root = scale - n * (scale // n)
    for _ in range(rounds):
        fired = sorted(range(n), key=lambda i: (-cash[i], i))[:budget]
        share = root // n
        root -= n * share
        inc = {i: 0 for i in range(n)}
        for u in fired:
            c = cash[u]
            hist[u] += c
            nb = out.get(u, [])
            if nb:
                q = c // len(nb)
                for v in nb:
                    inc[v] += q
                root += c - len(nb) * q
            else:
                root += c
            cash[u] = 0
        for i in range(n):
            cash[i] += inc[i] + share
    return {i: (cash[i], hist[i]) for i in range(n)}, root


def test_opic_matches_reference_both_paths(ray_session):
    """Budgeted synchronous OPIC equals the sequential reference exactly
    through the broadcast and forced-join outdeg attaches, including
    dangling pages (cash banks in the virtual root) and exact mass
    conservation (Σcash + root == scale every run)."""
    import numpy as np
    import ray

    from deepwebharvester_ray.functions.graph import opic

    rng = np.random.default_rng(3)
    n = 60
    edges = list({(int(a), int(b))
                  for a, b in rng.integers(0, n, (150, 2)) if a != b})
    edges = [(u, v) for u, v in edges if u < 57]  # 57..59 dangling
    B, R, S = 15, 4, 10 ** 12
    exp, exp_root = _seq_opic(n, edges, R, B, S)

    nodes = ray.data.from_items(
        [{"id": i} for i in range(n)]).repartition(4)
    eds = ray.data.from_items(
        [{"src": u, "dst": v} for u, v in edges]).repartition(3)
    for cutoff in (2_000_000, 0):
        got = {r["id"]: (r["cash"], r["hist"])
               for r in opic(eds, nodes, rounds=R, budget=B, scale=S,
                             broadcast_below=cutoff).take_all()}
        assert got == exp, cutoff
    assert sum(c for c, _ in exp.values()) + exp_root == S
    assert any(h > 0 for _, h in exp.values())


def test_opic_no_edges(ray_session):
    """All-dangling graph: every fired page's cash banks in the root and
    redistributes uniformly — history still accumulates."""
    import ray

    from deepwebharvester_ray.functions.graph import opic

    import pyarrow as pa

    nodes = ray.data.from_items([{"id": i} for i in range(8)])
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([], pa.int64()),
        "dst": pa.array([], pa.int64()),
    }))
    exp, _ = _seq_opic(8, [], 3, 2, 10 ** 6)
    got = {r["id"]: (r["cash"], r["hist"])
           for r in opic(edges, nodes, rounds=3, budget=2,
                         scale=10 ** 6).take_all()}
    assert got == exp


def test_random_walks_matches_reference_both_paths(ray_session):
    """Deterministic DeepWalk corpus equals a sequential reference
    exactly through the broadcast and forced-join hop attaches,
    including duplicate multi-edges (distinct ranks, same dst) and
    dangling-node early termination."""
    import hashlib

    import numpy as np
    import ray

    from deepwebharvester_ray.functions.graph import random_walks  # the graph_walks library op

    rng = np.random.default_rng(9)
    n = 50
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (140, 2))]
    edges += [(3, 7), (3, 7)]                     # duplicate multi-edge
    edges = [(u, v) for u, v in edges if u < 46]  # 46..49 dangling
    seeds = list(range(0, n, 5))

    out = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    for u in out:
        out[u].sort()
    exp = []
    for w in seeds:
        cur = w
        exp.append((w, 0, cur))
        for s in range(1, 5):
            nb = out.get(cur, [])
            if not nb:
                break
            r = int(hashlib.md5(f"{w}-{s}".encode()).hexdigest()[:15],
                    16) % len(nb)
            cur = nb[r]
            exp.append((w, s, cur))
    exp.sort()

    nodes = ray.data.from_items([{"id": i} for i in seeds]).repartition(3)
    eds = ray.data.from_items(
        [{"src": u, "dst": v} for u, v in edges]).repartition(4)
    for cutoff in (2_000_000, 0):
        got = sorted((r["walk_id"], r["step"], r["node"]) for r in
                     random_walks(eds, nodes, steps=4,
                                  broadcast_below=cutoff).take_all())
        assert got == exp, cutoff


def test_grouped_dd_quantiles_accuracy_and_invariance(ray_session):
    """Grouped DDSketch: every per-group quantile is within the alpha
    relative-error bound of the exact value, and the result is
    identical under resharding (register addition commutes)."""
    import numpy as np
    import ray

    from deepwebharvester_ray.functions.sketch import grouped_dd_quantiles

    rng = np.random.default_rng(23)
    keys, vals = [], []
    truth = {}
    for g, mu, n in (("a", 2.0, 4000), ("b", 5.0, 2500), ("c", 0.5, 800)):
        v = rng.lognormal(mu, 1.0, n)
        keys += [g] * n
        vals.append(v)
        truth[g] = v
    import pyarrow as pa
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(np.concatenate(vals), pa.float64())})
    ds = ray.data.from_arrow(t).repartition(6).materialize()
    rows = {r["k"]: r for r in grouped_dd_quantiles(
        ds, "k", "v", [0.5, 0.99], alpha=0.01).take_all()}
    assert set(rows) == {"a", "b", "c"}
    for g, v in truth.items():
        for p in (0.5, 0.99):
            exact = float(np.quantile(v, p))
            got = rows[g][f"q_{p}"]
            assert abs(got - exact) <= 0.03 * exact, (g, p, got, exact)
    rows2 = {r["k"]: r for r in grouped_dd_quantiles(
        ds.repartition(2), "k", "v", [0.5, 0.99], alpha=0.01).take_all()}
    assert rows == rows2


def test_merge_join_rejects_overlapping_payload_columns(ray_session):
    """A payload column named on both sides (or the key named as a
    payload column) is rejected instead of being overwritten with the
    other side's nulls."""
    import ray

    from deepwebharvester_ray.functions.mergejoin import merge_join

    lds = ray.data.from_items([{"k": 1, "v": 1}])
    rds = ray.data.from_items([{"k": 1, "v": 2}])
    with pytest.raises(ValueError, match="overlap"):
        merge_join(lds, rds, "k", ["v"], ["v"])
    with pytest.raises(ValueError, match="overlap"):
        merge_join(lds, rds, "k", ["k", "v"], [])


def test_jpeg_undefined_table_id_raises_valueerror():
    """A frame or scan naming a quant/huffman table id that was never
    declared is a ValueError, not a bare KeyError."""
    from deepwebharvester_ray.functions.jpeg import jpeg_decode, jpeg_encode

    blob = jpeg_encode(np.full((8, 8), 50, np.uint8))
    sof = blob.index(b"\xff\xc0")
    bad_q = bytearray(blob)
    bad_q[sof + 12] = 3                      # component 1's quant table id
    with pytest.raises(ValueError, match="undefined quant/huffman table"):
        jpeg_decode(bytes(bad_q))
    sos = blob.index(b"\xff\xda")
    bad_h = bytearray(blob)
    bad_h[sos + 6] = 0x33                    # component 1's DC/AC table ids
    with pytest.raises(ValueError, match="undefined quant/huffman table"):
        jpeg_decode(bytes(bad_h))


def test_hll_linear_counting_uses_libm_log():
    """The small-range branch is m * ln(m / zeros) through libm, the
    function the SQL oracle's ln() uses."""
    import math

    from deepwebharvester_ray.functions.sketch import _M, hll_estimate

    regs = np.zeros(_M, np.int64)
    regs[:37] = 1
    zeros = _M - 37
    assert hll_estimate(regs) == float(_M) * math.log(_M / zeros)
