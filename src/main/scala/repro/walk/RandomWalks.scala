package repro.walk

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Graph
import scala.collection.mutable.ArrayBuffer

/** Random-walk corpus generation (paper Algorithm 4).
  *
  * `n` walks of length `l` start from every graph node; each step moves to
  * a uniformly random neighbor, and an isolated node gives a length-1
  * walk. Every walk becomes one "sentence" whose words are node labels;
  * the union of sentences is the Word2Vec training corpus.
  *
  * DeepWalk-style (Perozzi et al., KDD'14): one Spark job over ranges of
  * start nodes walks the broadcast [[Graph]] in memory. Walk `w` from
  * node `v` draws from a `SplittableRandom` seeded by `(seed, v, w)` alone,
  * so partitioning and core count do not change the corpus, and each pass
  * over the DataFrame (Word2Vec makes two) regenerates identical walks.
  */
object RandomWalks {

  /** Returns a DataFrame `(sentence: Array[String])` with `n · |V|` rows. */
  def walks(spark: SparkSession, g: Graph, n: Int, l: Int, seed: Long = 13): DataFrame = {
    import spark.implicits._
    val bc       = spark.sparkContext.broadcast(g)
    val seedBits = new SplittableRandom(seed).nextLong()
    spark.sparkContext
      .parallelize(0 until g.numNodes, spark.sparkContext.defaultParallelism)
      .mapPartitions { startsIt =>
        val graph  = bc.value
        val starts = startsIt.toArray
        // Walk-major order, as DeepWalk's passes over the node set.
        for (w <- (0 until n).iterator; v <- starts.iterator)
          yield walk(graph, v, l, new SplittableRandom(seedBits ^ ((v.toLong << 32) | w)))
      }
      .toDF("sentence")
  }

  /** Labels of one walk of at most `l` nodes from `start`. */
  private def walk(g: Graph, start: Int, l: Int, rnd: SplittableRandom): Array[String] = {
    val out = new ArrayBuffer[String](l)
    var cur = start
    out += g.labels(cur)
    while (out.length < l && g.degree(cur) > 0) {
      cur = g.neighbors(g.offsets(cur) + rnd.nextInt(g.degree(cur)))
      out += g.labels(cur)
    }
    out.toArray
  }
}
