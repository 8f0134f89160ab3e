package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.metrics.RankMetrics
import repro.pipeline.TDMatch

/** Benchmark suites, one per paper table. Each prints the table's
  * markdown (recorded in EXPERIMENTS.md) and asserts on its rows the
  * *shape* claims of the paper that are robust at bench scale: W-RW beats
  * the pretrained S-BE stand-in on the domain-specific tasks, expansion
  * does not hurt, compression shrinks graphs.
  */
trait BenchBase extends SparkSpec {
  /** The MRR of `method`'s row in each section of a quality table. */
  def mrrs(table: Tables.Table[Tables.QRow], method: String): Seq[Double] =
    table.rows.filter(_.method == method).map(_.row.mrr)
}

class TableIBench extends BenchBase {
  test("Table I — IMDb WT/NT") {
    val t = Tables.tableI(spark)
    println(t.markdown)
    // Paper shape: W-RW ≫ S-BE in both variants; expansion helps or ties.
    val wrw = mrrs(t, "W-RW")
    val sbe = mrrs(t, "S-BE")
    assert(wrw.size == 2 && sbe.size == 2)
    wrw.zip(sbe).foreach { case (w, s) => assert(w > s, s"W-RW $w !> S-BE $s") }
    val ex = mrrs(t, "W-RW-EX")
    wrw.zip(ex).foreach { case (w, e) => assert(e >= w - 0.05, s"expansion hurt: $w → $e") }
  }
}

class TableIIBench extends BenchBase {
  test("Table II — CoronaCheck Gen/Usr") {
    val t = Tables.tableII(spark)
    println(t.markdown)
    mrrs(t, "W-RW").zip(mrrs(t, "S-BE")).foreach { case (w, s) => assert(w > s, s"W-RW $w !> S-BE $s") }
  }
}

class TableIIIBench extends BenchBase {
  test("Table III — Audit Exact/Node scores") {
    val t = Tables.tableIII(spark)
    println(t.markdown)
    // Shape: W-RW beats S-BE (domain vocabulary is OOV for pretrained).
    def nodeF(method: String) = t.rows.filter(_.method == method).map(_.node.f)
    val wrwNodeF = nodeF("W-RW")
    val sbeNodeF = nodeF("S-BE")
    assert(wrwNodeF.nonEmpty && wrwNodeF.size == sbeNodeF.size)
    assert(wrwNodeF.sum > sbeNodeF.sum, s"$wrwNodeF vs $sbeNodeF")
  }
}

class TableIVBench extends BenchBase {
  test("Table IV — Politifact") {
    val t = Tables.tableTextToText(spark, "politifact")
    println(t.markdown)
    assert(mrrs(t, "W-RW").max > mrrs(t, "S-BE").max)
  }
}

class TableVBench extends BenchBase {
  test("Table V — Snopes") {
    val t = Tables.tableTextToText(spark, "snopes")
    println(t.markdown)
    assert(mrrs(t, "W-RW").max > mrrs(t, "S-BE").max)
  }
}

class TableVIBench extends BenchBase {
  test("Table VI — STS k=2,3") {
    val t = Tables.tableVI(spark)
    println(t.markdown)
    // All methods are strong here; check rows exist and are sane.
    assert(mrrs(t, "W-RW").forall(m => m > 0.3 && m <= 1.0))
  }
}

class TableVIIBench extends BenchBase {
  test("Table VII — execution times") {
    val t = Tables.tableVII(spark)
    println(t.markdown)
    // Shape: our method's test time is small; training dominates.
    val wrwRows = t.rows.filter(_.method == "W-RW")
    assert(wrwRows.size == 3)
    wrwRows.foreach { r =>
      assert(r.trainSec > r.testSec, s"W-RW train ${r.trainSec} should exceed test ${r.testSec}")
    }
  }
}

class TableVIIIBench extends BenchBase {
  test("Table VIII — compression size vs quality") {
    val t = Tables.tableVIII(spark)
    println(t.markdown)
    t.rows.groupBy(_.dataset).foreach { case (ds, vs) =>
      def of(v: String) = vs.find(_.variant == v).get
      val expanded = of("Expanded"); val msp5 = of("MSP(0.5)"); val msp25 = of("MSP(0.25)")
      // MSP compresses the expanded graph monotonically in β. (Expansion
      // itself may shrink node counts: Algorithm 2's cleaning step prunes
      // every degree-1 node, including original ones.)
      assert(msp5.nodes <= expanded.nodes, s"$ds MSP(0.5) nodes")
      assert(msp25.nodes <= msp5.nodes, s"$ds MSP(0.25) ≤ MSP(0.5) nodes")
      // SSuM keeps a usable sparsified graph (metadata stays connected).
      assert(of("SSuM(0.1)").edges > 0, s"$ds SSuM should keep edges")
    }
  }
}

/** Recorded ablation, no paper table: the effect of γ-merge, bucketing
  * and walk budget on W-RW quality for CoronaCheck Gen. Prints one
  * `PROBE` line per variant; asserts nothing.
  */
class CoronaAblationBench extends BenchBase {
  test("corona W-RW ablation probe") {
    val sc = Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 250))
    for {
      (gamma, buckets) <- Seq((false, false), (false, true), (true, true))
      (nw, wl) <- Seq((10, 10), (30, 15))
    } {
      val bench = Tables.Bench(numWalks = nw, walkLength = wl)
      val merge = Tables.mergeFor(spark, sc, gamma, buckets, bench)
      val r = TDMatch.run(spark, sc.queries, sc.candidates, Tables.cfgFor(sc, merge, expand = false, bench))
      val mrr = RankMetrics.mrr(r.ranked, sc.truth)
      println(f"PROBE gamma=$gamma buckets=$buckets walks=${nw}x$wl mrr=$mrr%.3f")
    }
  }
}
