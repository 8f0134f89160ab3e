package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.Tables
import repro.data.{Scenario, Scenarios}
import repro.pipeline.TDMatch

/** One benchmark workload: a scenario generator (seeded by the benchmark)
  * and the pipeline settings the reproduction's tables use for it.
  */
final case class Workload(
    name: String,
    scenario: (SparkSession, Long) => Scenario,
    /** A small instance of the same scenario and world, for the untimed
      * warm-up of a traced run: it runs every code path of a match, so
      * that the traced match and its reference are both warm.
      */
    warmup: (SparkSession, Long) => Scenario,
    bench: Tables.Bench,
    useGamma: Boolean,
    useBuckets: Boolean,
    expand: Boolean,
    compression: TDMatch.Compression) {

  def config(sc: Scenario, merge: Option[DataFrame]): TDMatch.Config =
    Tables.cfgFor(sc, merge, expand, bench).copy(compression = compression)
}

object Workloads {

  /** The benchmark seed shifts each scenario's own default seed, so seed 0
    * generates the inputs of the reproduction's tables.
    */
  val all: Seq[Workload] = Seq(
    // Table II scenario and walk budget, with FD bucketing and no γ merge,
    // expanded with the scenario's KB and then compressed with MSP(0.5):
    // the path of the Table VIII runs.
    Workload("corona-gen-ex-msp",
      (spark, seed) => Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 250, seed = 321 + seed)),
      (spark, seed) => Scenarios.corona(spark,
        Scenarios.CoronaParams(nCountries = 6, nMonths = 4, nGen = 30, seed = 321 + seed)),
      Tables.Default.copy(numWalks = 30, walkLength = 15),
      useGamma = false, useBuckets = true, expand = true, compression = TDMatch.Msp(0.5)),
    // Table V scenario: γ merge, Word2Vec window 15, no expansion or compression.
    Workload("snopes-t2t",
      (spark, seed) => Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 1000, nClaims = 120,
        synProb = 0.3, dropProb = 0.15, seed = 777 + seed, name = "snopes")),
      (spark, seed) => Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 100, nClaims = 20,
        nEntities = 40, synProb = 0.3, dropProb = 0.15, seed = 777 + seed, name = "snopes")),
      Tables.Default,
      useGamma = true, useBuckets = false, expand = false, compression = TDMatch.NoCompression))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
