package repro.bench

import repro.SparkSpec
import repro.data.Scenarios

class TablesSpec extends SparkSpec {

  test("qualityRows leaves no cached RDD behind") {
    val sc = Scenarios.imdb(spark,
      Scenarios.ImdbParams(nMovies = 15, nDirectors = 6, nActors = 10, seed = 77))
    // Spark holds persistent RDDs weakly: after a full GC only those a
    // cache still references are counted.
    def persisted: Set[Int] = { System.gc(); spark.sparkContext.getPersistentRDDs.keySet.toSet }
    val before = persisted
    val rows = Tables.qualityRows(spark, sc, Nil, useGamma = true, useBuckets = false)
    assert(rows.map(_.method) == Seq("S-BE", "W-RW", "W-RW-EX"))
    assert((persisted -- before).isEmpty)
  }
}
